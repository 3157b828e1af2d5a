package core

import (
	"math"

	"react/internal/buffer"
	"react/internal/circuit"
)

// Config describes a REACT buffer instance.
type Config struct {
	// LLB is the last-level buffer: the small static capacitor that alone
	// sets cold-start latency and smooths bank-switching transients.
	LLB buffer.StaticConfig
	// Banks are the reconfigurable banks in connection order.
	Banks []BankSpec
	// VHigh is the overvoltage threshold: the comparator level at which
	// the controller adds capacitance (paper: 3.5 V).
	VHigh float64
	// VLow is the undervoltage threshold at which the controller reclaims
	// charge by stepping capacitance down.
	VLow float64
	// VMax is the rail's absolute overvoltage-protection clip (3.6 V).
	VMax float64
	// VMin is the device's minimum operating voltage (1.8 V), used for
	// the level→energy guarantee computation.
	VMin float64
	// PollHz is the software controller polling rate (paper: 10 Hz).
	PollHz float64
	// BaseOverheadW is the draw of REACT's always-needed instrumentation
	// (the two threshold comparators) while the device is on.
	BaseOverheadW float64
	// OverheadPerBankW is the additional draw per connected bank (switch
	// drivers and isolation-diode comparators). The paper measures ≈68 µW
	// with the full five-bank array engaged, ≈14 µW per bank.
	OverheadPerBankW float64
	// SoftwareOverhead is the fraction of device CPU consumed by polling
	// (paper measures 1.8 % at 10 Hz).
	SoftwareOverhead float64
	// DiodeDrop is the forward drop of the isolation diodes; 0 models the
	// active ideal-diode circuits REACT uses, ~0.3 V a Schottky baseline.
	DiodeDrop float64
}

// DefaultConfig returns the paper's Table 1 implementation: a 770 µF
// last-level buffer plus five banks (3×220 µF, 3×440 µF, 3×880 µF, 3×880 µF,
// 2×5 mF) spanning 770 µF–18.03 mF, with the §4–5 thresholds.
func DefaultConfig() Config {
	ceramic := func(n int, unit float64) BankSpec {
		// Murata GRM31 class: 28 µA max leakage at 6.3 V per 220 µF;
		// scale with capacitance, derated to typical (×0.05).
		return BankSpec{N: n, UnitC: unit, LeakI: 28e-6 * 0.05 * (unit / 220e-6), VRated: 6.3}
	}
	return Config{
		LLB: buffer.StaticConfig{
			Name: "REACT LLB", C: 770e-6, VMax: 3.6,
			LeakI: 28e-6 * 0.05 * (770.0 / 220.0), VRated: 6.3,
		},
		Banks: []BankSpec{
			ceramic(3, 220e-6),
			ceramic(3, 440e-6),
			ceramic(3, 880e-6),
			ceramic(3, 880e-6),
			// Bank 5: supercapacitors, ~0.15 µA leakage at 5.5 V.
			{N: 2, UnitC: 5e-3, LeakI: 0.15e-6, VRated: 5.5},
		},
		VHigh:            3.5,
		VLow:             1.9,
		VMax:             3.6,
		VMin:             1.8,
		PollHz:           10,
		BaseOverheadW:    2e-6,
		OverheadPerBankW: 13.2e-6,
		SoftwareOverhead: 0.018,
		DiodeDrop:        0,
	}
}

// MaxCapacitance returns the equivalent capacitance with every bank in
// parallel — the top of the configuration range (18.03 mF for Table 1).
func (c Config) MaxCapacitance() float64 {
	total := c.LLB.C
	for _, b := range c.Banks {
		total += float64(b.N) * b.UnitC
	}
	return total
}

// Buffer is a REACT energy buffer. It implements buffer.Buffer and
// buffer.Leveler.
type Buffer struct {
	cfg    Config
	llb    circuit.Capacitor
	banks  []*Bank
	step   int // controller position in the expand sequence: 0..2·len(banks)
	ledger buffer.Ledger
	poll   float64 // seconds until the next controller poll

	// guarantee caches GuaranteedEnergy per level. The table depends only
	// on the immutable config, and workloads probe it every step through
	// buffer.LevelFor, so it is computed once at construction.
	guarantee []float64
}

var (
	_ buffer.Buffer  = (*Buffer)(nil)
	_ buffer.Leveler = (*Buffer)(nil)
)

// New builds a REACT buffer from cfg.
func New(cfg Config) *Buffer {
	b := &Buffer{
		cfg: cfg,
		llb: circuit.Capacitor{
			C: cfg.LLB.C, VMax: cfg.VMax,
			LeakI: cfg.LLB.LeakI, VRated: cfg.LLB.VRated,
		},
	}
	for _, spec := range cfg.Banks {
		b.banks = append(b.banks, NewBank(spec))
	}
	if b.poll == 0 && cfg.PollHz > 0 {
		b.poll = 1 / cfg.PollHz
	}
	b.guarantee = make([]float64, b.MaxLevel()+1)
	for lvl := 1; lvl <= b.MaxLevel(); lvl++ {
		c := b.capacitanceAtStep(lvl - 1)
		b.guarantee[lvl] = 0.5 * c * (b.cfg.VHigh*b.cfg.VHigh - b.cfg.VMin*b.cfg.VMin)
	}
	return b
}

// Name implements buffer.Buffer.
func (b *Buffer) Name() string { return "REACT" }

// Config returns the configuration the buffer was built with.
func (b *Buffer) Config() Config { return b.cfg }

// Banks exposes the bank states for inspection (tests, tracing).
func (b *Buffer) Banks() []*Bank { return b.banks }

// Harvest implements buffer.Buffer. Incoming charge flows through the input
// ideal diodes to the lowest-voltage connected node — the paper's "current
// flows from the harvester to the lowest-voltage bank first". Nodes within
// 1 mV of the minimum share the charge in proportion to capacitance.
//
// The rail is the LLB followed by the connected banks, visited in that
// order by each pass, each node charged through circuit.StoreCharge.
func (b *Buffer) Harvest(dE float64) {
	if dE <= 0 {
		return
	}
	b.ledger.Harvested += dE
	minV := b.llb.Voltage()
	for _, bank := range b.banks {
		if bank.State == Disconnected {
			continue
		}
		if v := bank.Voltage(); v < minV {
			minV = v
		}
	}
	const tie = 1e-3
	var groupC float64
	if b.llb.Voltage() <= minV+tie {
		groupC += b.llb.C
	}
	for _, bank := range b.banks {
		if bank.State != Disconnected && bank.Voltage() <= minV+tie {
			groupC += bank.Capacitance()
		}
	}
	if groupC == 0 {
		b.ledger.Clipped += dE
		return
	}
	if v := b.llb.Voltage(); v <= minV+tie {
		dq, loss := circuit.StoreCharge(b.llb.C, v, dE*b.llb.C/groupC, b.cfg.DiodeDrop)
		b.llb.AddCharge(dq)
		b.ledger.SwitchLoss += loss
	}
	for _, bank := range b.banks {
		if bank.State == Disconnected {
			continue
		}
		if v := bank.Voltage(); v <= minV+tie {
			c := bank.Capacitance()
			dq, loss := circuit.StoreCharge(c, v, dE*c/groupC, b.cfg.DiodeDrop)
			bank.AddCharge(dq)
			b.ledger.SwitchLoss += loss
		}
	}
	b.clip()
}

// Draw implements buffer.Buffer. The device is supplied from the LLB only;
// banks replenish it through their output diodes during Tick.
func (b *Buffer) Draw(dE float64) float64 {
	got := b.llb.Draw(dE)
	if got < dE {
		// LLB alone could not cover the demand within this tick; let the
		// banks conduct immediately (the output diodes are not clocked).
		b.relax()
		got += b.llb.Draw(dE - got)
	}
	b.ledger.Consumed += got
	return got
}

// OutputVoltage implements buffer.Buffer.
func (b *Buffer) OutputVoltage() float64 { return b.llb.Voltage() }

// Stored implements buffer.Buffer.
func (b *Buffer) Stored() float64 {
	e := b.llb.Energy()
	for _, bank := range b.banks {
		e += bank.Energy()
	}
	return e
}

// Capacitance implements buffer.Buffer: the equivalent capacitance at the
// rail (LLB plus connected banks).
func (b *Buffer) Capacitance() float64 {
	c := b.llb.C
	for _, bank := range b.banks {
		c += bank.Capacitance()
	}
	return c
}

// relax lets every connected bank above the LLB voltage conduct through its
// output ideal diode until no diode is forward-biased. Conduction loss (the
// charge-sharing dissipation of Eq. 1 transitions) is charged to the switch
// ledger.
func (b *Buffer) relax() {
	for iter := 0; iter < 4*len(b.banks)+4; iter++ {
		var donor *Bank
		vLLB := b.llb.Voltage()
		best := vLLB + b.cfg.DiodeDrop + 1e-9
		for _, bank := range b.banks {
			if bank.State == Disconnected {
				continue
			}
			if v := bank.Voltage(); v > best {
				best = v
				donor = bank
			}
		}
		if donor == nil {
			return
		}
		// The donor's output diode conducts into the LLB; best is the
		// donor's voltage.
		if dq, ok := circuit.TransferCharge(donor.Capacitance(), best, b.llb.C, vLLB, b.cfg.DiodeDrop); ok {
			before := donor.Energy() + b.llb.Energy()
			donor.AddCharge(-dq)
			b.llb.AddCharge(dq)
			b.ledger.SwitchLoss += circuit.GuardLoss(before - donor.Energy() - b.llb.Energy())
		}
		b.ledger.Clipped += b.llb.Clip()
	}
}

// clip applies rail overvoltage protection to every connected node.
func (b *Buffer) clip() {
	b.ledger.Clipped += b.llb.Clip()
	for _, bank := range b.banks {
		b.ledger.Clipped += bank.ClipTerminal(b.cfg.VMax)
	}
}

// Tick implements buffer.Buffer.
func (b *Buffer) Tick(now, dt float64, deviceOn bool) {
	b.relax()
	// Leakage applies to every capacitor, connected or not.
	b.ledger.Leaked += b.llb.Leak(dt)
	for _, bank := range b.banks {
		b.ledger.Leaked += bank.Leak(dt)
	}
	b.clip()
	if !deviceOn {
		// REACT's controller runs on the device itself: no polling, no
		// management draw while the system is power-gated. Reset the poll
		// phase so a fresh boot polls after one period.
		b.poll = 1 / b.cfg.PollHz
		return
	}
	connected := 0
	for _, bank := range b.banks {
		if bank.State != Disconnected {
			connected++
		}
	}
	over := (b.cfg.BaseOverheadW + b.cfg.OverheadPerBankW*float64(connected)) * dt
	b.ledger.Overhead += b.llb.Draw(over)
	b.poll -= dt
	if b.poll <= 0 {
		b.poll += 1 / b.cfg.PollHz
		b.controllerPoll()
	}
}

// controllerPoll is one iteration of the §3.4 state machine: compare the
// LLB voltage against the two comparator thresholds and step the expand
// sequence up or down by one.
func (b *Buffer) controllerPoll() {
	v := b.llb.Voltage()
	switch {
	case v >= b.cfg.VHigh:
		b.stepUp()
	case v <= b.cfg.VLow:
		b.stepDown()
	}
}

// stepUp adds capacitance: connect the next bank in series, or promote the
// most recently connected series bank to parallel.
func (b *Buffer) stepUp() {
	if b.step >= 2*len(b.banks) {
		return // fully expanded; surplus will clip
	}
	bank := b.banks[b.step/2]
	if b.step%2 == 0 {
		bank.Reconfigure(Series)
	} else {
		// Series → parallel: terminal voltage divides by N, no charge
		// moves between capacitors, stored energy conserved exactly.
		bank.Reconfigure(Parallel)
	}
	b.step++
}

// stepDown removes capacitance: demote the most recently paralleled bank to
// series (boosting its terminal voltage ×N — charge reclamation, §3.3.4) or
// disconnect a drained series bank.
func (b *Buffer) stepDown() {
	if b.step <= 0 {
		return // nothing connected beyond the LLB
	}
	b.step--
	bank := b.banks[b.step/2]
	if b.step%2 == 0 {
		// Reverse of "connect in series": disconnect. Residual charge
		// stays on the bank (it is stranded unless the bank reconnects).
		bank.Reconfigure(Disconnected)
	} else {
		// Reverse of "promote to parallel": back to series. The bank's
		// terminal voltage jumps ×N; the output diode will dump the
		// reclaimed charge into the LLB on the next relax.
		bank.Reconfigure(Series)
	}
	b.relax()
}

// QuiescentOff implements buffer.Quiescent. A device-off tick relaxes the
// output diodes, leaks and clips every capacitor, and resets the poll
// phase; it is a no-op exactly when no bank diode is forward-biased, no
// capacitor has charge to leak or clip, and the poll timer already sits at
// its reset value (true from the first off-tick on, since the reset is
// idempotent). Each comparison mirrors the corresponding Tick step bit for
// bit: the relax donor threshold, circuit.Capacitor.Leak/Clip, Bank.Leak,
// and Bank.ClipTerminal.
func (b *Buffer) QuiescentOff() bool {
	best := b.llb.Voltage() + b.cfg.DiodeDrop + 1e-9
	for _, bank := range b.banks {
		if bank.Spec.LeakI > 0 && bank.q > 0 {
			return false
		}
		if bank.State == Disconnected {
			continue
		}
		if v := bank.Voltage(); v > best || (b.cfg.VMax > 0 && v > b.cfg.VMax) {
			return false
		}
	}
	if b.llb.LeakI > 0 && b.llb.Q > 0 {
		return false
	}
	if b.llb.VMax > 0 && b.llb.Voltage() > b.llb.VMax {
		return false
	}
	//lint:reactlint-ignore dtarith poll is assigned exactly 1/PollHz on re-arm, so bit-identity means the timer is freshly reset
	return b.poll == 1/b.cfg.PollHz
}

// Ledger implements buffer.Buffer.
func (b *Buffer) Ledger() *buffer.Ledger { return &b.ledger }

// SoftwareOverheadFraction implements buffer.Buffer.
func (b *Buffer) SoftwareOverheadFraction() float64 { return b.cfg.SoftwareOverhead }

// Level implements buffer.Leveler: the controller's position in the expand
// sequence. Level 0 is the bare LLB; each bank contributes two levels
// (series, then parallel).
func (b *Buffer) Level() int { return b.step }

// MaxLevel implements buffer.Leveler.
func (b *Buffer) MaxLevel() int { return 2 * len(b.banks) }

// GuaranteedEnergy implements buffer.Leveler: reaching level k required the
// rail to be at V_high with the level k−1 capacitance connected, so at least
// the usable energy of that configuration (between V_high and the device
// floor V_min) was stored. Level 0 guarantees nothing.
func (b *Buffer) GuaranteedEnergy(level int) float64 {
	if level <= 0 {
		return 0
	}
	if level > b.MaxLevel() {
		level = b.MaxLevel()
	}
	return b.guarantee[level]
}

// capacitanceAtStep returns the equivalent rail capacitance after the first
// `step` controller actions.
func (b *Buffer) capacitanceAtStep(step int) float64 {
	c := b.cfg.LLB.C
	for i, spec := range b.cfg.Banks {
		switch {
		case step >= 2*(i+1):
			c += float64(spec.N) * spec.UnitC
		case step == 2*i+1:
			c += spec.UnitC / float64(spec.N)
		}
	}
	return c
}

// VoltageAfterReclaim computes Equation 1 of the paper: the LLB voltage
// immediately after a bank of N capacitors of size cUnit, demoted from
// parallel to series at trigger voltage vLow, equalizes with an LLB of size
// cLast also at vLow.
func VoltageAfterReclaim(n int, cUnit, cLast, vLow float64) float64 {
	cs := cUnit / float64(n)
	return (float64(n)*vLow*cs + vLow*cLast) / (cLast + cs)
}

// MaxUnitCapacitance computes Equation 2: the largest per-capacitor size
// for which the parallel→series reclamation spike stays below vHigh. It
// returns +Inf when the transition cannot exceed vHigh for any size
// (N·vLow ≤ vHigh).
func MaxUnitCapacitance(n int, cLast, vLow, vHigh float64) float64 {
	den := float64(n)*vLow - vHigh
	if den <= 0 {
		return math.Inf(1)
	}
	return float64(n) * cLast * (vHigh - vLow) / den
}
