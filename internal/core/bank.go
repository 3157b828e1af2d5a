// Package core implements REACT, the paper's primary contribution: an
// energy buffer built from a small static last-level buffer plus a fabric of
// mutually isolated, reconfigurable capacitor banks, managed by a polling
// software controller.
//
// Design summary (paper §3):
//
//   - Cold start charges only the last-level buffer (LLB), so the enable
//     latency matches the smallest static buffer.
//   - When the LLB reaches V_high (surplus power), the controller steps
//     capacity up: connect the next bank in series (C/N), then — on the
//     next overvoltage — reconfigure it to parallel (N·C).
//   - When the LLB falls to V_low (deficit), the controller steps down:
//     reconfigure the most recently paralleled bank back to series, which
//     multiplies its terminal voltage by N and reclaims charge that would
//     otherwise be stranded below the operating floor (§3.3.4), or
//     disconnect a drained series bank.
//   - Capacitors within a bank always hold equal charge and banks never
//     exchange charge directly (isolation diodes), so reconfiguration is
//     lossless — the property that separates REACT from unified
//     switched-capacitor arrays (§3.3.1 vs §3.3.2).
package core

import "fmt"

// BankState is the switch configuration of one capacitor bank.
type BankState int

const (
	// Disconnected banks hold their charge but neither charge nor supply.
	Disconnected BankState = iota
	// Series presents the N capacitors as one chain: capacitance C/N,
	// terminal voltage N·V_cap.
	Series
	// Parallel presents the N capacitors side by side: capacitance N·C,
	// terminal voltage V_cap.
	Parallel
)

// String implements fmt.Stringer.
func (s BankState) String() string {
	switch s {
	case Disconnected:
		return "disconnected"
	case Series:
		return "series"
	case Parallel:
		return "parallel"
	}
	return fmt.Sprintf("BankState(%d)", int(s))
}

// BankSpec describes one reconfigurable bank: N identical capacitors of
// UnitC farads each.
type BankSpec struct {
	N      int     // capacitors in the bank
	UnitC  float64 // capacitance per capacitor, farads
	LeakI  float64 // per-capacitor leakage current at VRated, amps
	VRated float64 // rating voltage for leakage scaling
}

// Bank is the runtime state of a reconfigurable capacitor bank. Because the
// capacitors within a bank are always switched together (all-series or
// all-parallel) and charge only through the common terminal, they hold equal
// charge at all times; the bank therefore tracks a single per-capacitor
// charge. Its terminal methods (Capacitance, Voltage, AddCharge, Energy)
// match circuit.Capacitor's and circuit.Chain's.
type Bank struct {
	Spec  BankSpec
	State BankState
	q     float64 // charge per capacitor, coulombs
}

// NewBank returns a disconnected, empty bank.
func NewBank(spec BankSpec) *Bank {
	return &Bank{Spec: spec, State: Disconnected}
}

// Capacitance returns the equivalent capacitance at the bank terminal for
// the current configuration (0 when disconnected).
func (b *Bank) Capacitance() float64 {
	switch b.State {
	case Series:
		return b.Spec.UnitC / float64(b.Spec.N)
	case Parallel:
		return b.Spec.UnitC * float64(b.Spec.N)
	}
	return 0
}

// Voltage returns the terminal voltage for the current configuration. A
// disconnected bank reports the voltage it would present if reconnected in
// its last configuration state; by convention we report the per-capacitor
// voltage (series reconnect multiplies it by N).
func (b *Bank) Voltage() float64 {
	vCap := b.CapVoltage()
	switch b.State {
	case Series:
		return vCap * float64(b.Spec.N)
	case Parallel:
		return vCap
	}
	return vCap
}

// CapVoltage returns the voltage across each individual capacitor.
func (b *Bank) CapVoltage() float64 {
	if b.Spec.UnitC == 0 {
		return 0
	}
	return b.q / b.Spec.UnitC
}

// Energy returns the total energy stored across all N capacitors. It is
// configuration-independent — the invariant behind lossless reconfiguration.
func (b *Bank) Energy() float64 {
	if b.Spec.UnitC == 0 {
		return 0
	}
	return float64(b.Spec.N) * b.q * b.q / (2 * b.Spec.UnitC)
}

// AddCharge moves dq through the bank terminal. In series every capacitor
// carries the full dq; in parallel it divides evenly (the capacitors are
// identical). Withdrawals truncate at empty. Disconnected banks accept no
// charge.
func (b *Bank) AddCharge(dq float64) float64 {
	var perCap float64
	switch b.State {
	case Series:
		perCap = dq
	case Parallel:
		perCap = dq / float64(b.Spec.N)
	default:
		return 0
	}
	if b.q+perCap < 0 {
		perCap = -b.q
		switch b.State {
		case Series:
			dq = perCap
		case Parallel:
			dq = perCap * float64(b.Spec.N)
		}
	}
	b.q += perCap
	return dq
}

// SetCapVoltage forces every capacitor in the bank to voltage v. Intended
// for initial conditions and tests.
func (b *Bank) SetCapVoltage(v float64) {
	b.q = v * b.Spec.UnitC
}

// Reconfigure changes the bank switch state. The operation moves no charge
// between capacitors (break-before-make switches; capacitors within the
// bank are at equal voltage by construction), so stored energy is exactly
// conserved — assert with Energy() before/after if in doubt.
func (b *Bank) Reconfigure(state BankState) {
	b.State = state
}

// Leak drains leakage from every capacitor for dt seconds and returns the
// energy lost. Banks leak whether or not they are connected.
func (b *Bank) Leak(dt float64) float64 {
	if b.Spec.LeakI <= 0 || b.q <= 0 {
		return 0
	}
	v := b.CapVoltage()
	scale := 1.0
	if b.Spec.VRated > 0 {
		scale = v / b.Spec.VRated
	}
	dq := b.Spec.LeakI * scale * dt
	if dq > b.q {
		dq = b.q
	}
	before := b.Energy()
	b.q -= dq
	return before - b.Energy()
}

// ClipTerminal enforces a maximum terminal voltage (the rail's overvoltage
// protection) and returns the energy discarded.
func (b *Bank) ClipTerminal(vMax float64) float64 {
	if b.State == Disconnected || vMax <= 0 || b.Voltage() <= vMax {
		return 0
	}
	before := b.Energy()
	switch b.State {
	case Series:
		b.q = vMax / float64(b.Spec.N) * b.Spec.UnitC
	case Parallel:
		b.q = vMax * b.Spec.UnitC
	}
	return before - b.Energy()
}
