// Package capybara implements a Capybara-style reconfigurable static
// array (Colin et al., ASPLOS'18), the multiplexed-storage design the
// paper's §2.3 positions REACT against.
//
// Capybara provisions several discrete capacitor banks. One set is active
// (connected to the rail); the others are reserve banks that charge in the
// background from harvest surplus. Capacitance "modes" are the prefixes of
// the bank list: mode k connects banks 0..k in parallel. Stepping a mode up
// parallels a pre-charged reserve bank onto the rail (paying the
// charge-sharing loss for whatever voltage gap remains); stepping down
// disconnects the most recently added bank, stranding its charge on the
// reserve — the §2.3 criticism this baseline exists to exhibit:
//
//	"Reserving energy in secondary capacitors ... wastes energy as leakage
//	 when secondary buffers are only partially charged, failing to enable
//	 associated systems and keeping energy from higher-priority work."
//
// The controller mirrors REACT's comparator thresholds so the comparison
// isolates the storage architecture: overvoltage steps the mode up,
// undervoltage steps it down.
package capybara

import (
	"react/internal/buffer"
	"react/internal/circuit"
)

// Config describes a Capybara-style array.
type Config struct {
	// Banks are the capacitor sizes in connection order; bank 0 is always
	// active and plays the same reactivity role as REACT's last-level
	// buffer.
	Banks []float64
	// LeakI is leakage per farad at VRated (scaled per bank).
	LeakIPerF float64
	VRated    float64
	// VHigh, VLow, VMax mirror the REACT controller thresholds.
	VHigh, VLow, VMax float64
	// PollHz is the mode controller rate.
	PollHz float64
	// BaseOverheadW and OverheadPerBankW model the comparator and
	// load-switch driver draw, mirroring REACT's management hardware
	// budget so the architectures compare on storage organization alone.
	BaseOverheadW, OverheadPerBankW float64
}

// DefaultConfig provisions the same total capacitance as REACT's Table 1
// fabric (≈18 mF) across four discrete banks.
func DefaultConfig() Config {
	return Config{
		Banks:            []float64{770e-6, 2e-3, 5.26e-3, 10e-3},
		LeakIPerF:        1e-3, // 1 µA per mF at rated voltage
		VRated:           6.3,
		VHigh:            3.5,
		VLow:             1.9,
		VMax:             3.6,
		PollHz:           10,
		BaseOverheadW:    2e-6,
		OverheadPerBankW: 13.2e-6,
	}
}

// Buffer is a Capybara-style array. It implements buffer.Buffer and
// buffer.Leveler.
type Buffer struct {
	cfg    Config
	banks  []*circuit.Capacitor
	mode   int // banks 0..mode are active
	ledger buffer.Ledger
	poll   float64
}

var (
	_ buffer.Buffer  = (*Buffer)(nil)
	_ buffer.Leveler = (*Buffer)(nil)
)

// New builds the array with every bank empty and only bank 0 active.
func New(cfg Config) *Buffer {
	b := &Buffer{cfg: cfg}
	for _, c := range cfg.Banks {
		b.banks = append(b.banks, &circuit.Capacitor{
			C: c, LeakI: cfg.LeakIPerF * c, VRated: cfg.VRated, VMax: cfg.VMax,
		})
	}
	if cfg.PollHz > 0 {
		b.poll = 1 / cfg.PollHz
	}
	return b
}

// Name implements buffer.Buffer.
func (b *Buffer) Name() string { return "Capybara" }

// active returns the connected banks.
func (b *Buffer) active() []*circuit.Capacitor { return b.banks[:b.mode+1] }

// Harvest implements buffer.Buffer: the active set charges first (lowest
// voltage bank of the set, like any parallel rail); once the rail is full,
// surplus trickle-charges the reserve banks in priority order instead of
// being clipped — the Capybara advantage over a lone static buffer.
func (b *Buffer) Harvest(dE float64) {
	if dE <= 0 {
		return
	}
	b.ledger.Harvested += dE
	// Parallel rail: split across active banks by capacitance after
	// equalization; they stay equalized because they charge and discharge
	// together.
	var railC float64
	for _, c := range b.active() {
		railC += c.C
	}
	v := b.OutputVoltage()
	if v < b.cfg.VMax {
		room := 0.5*railC*b.cfg.VMax*b.cfg.VMax - 0.5*railC*v*v
		take := dE
		if take > room {
			take = room
		}
		for _, c := range b.active() {
			c.Store(take*c.C/railC, 0)
		}
		dE -= take
	}
	// Surplus goes to reserves, in order, until each is full.
	for i := b.mode + 1; i < len(b.banks) && dE > 0; i++ {
		r := b.banks[i]
		room := 0.5*r.C*b.cfg.VMax*b.cfg.VMax - r.Energy()
		if room <= 0 {
			continue
		}
		take := dE
		if take > room {
			take = room
		}
		r.Store(take, 0)
		dE -= take
	}
	// Whatever remains has nowhere to go.
	b.ledger.Clipped += dE
}

// Draw implements buffer.Buffer: the load is served by the active rail.
func (b *Buffer) Draw(dE float64) float64 {
	var railC float64
	for _, c := range b.active() {
		railC += c.C
	}
	var got float64
	for _, c := range b.active() {
		got += c.Draw(dE * c.C / railC)
	}
	b.ledger.Consumed += got
	return got
}

// OutputVoltage implements buffer.Buffer: the active banks stay equalized,
// so the capacitance-weighted mean is the rail voltage.
func (b *Buffer) OutputVoltage() float64 {
	var qc, cc float64
	for _, c := range b.active() {
		qc += c.Q
		cc += c.C
	}
	if cc == 0 {
		return 0
	}
	return qc / cc
}

// Stored implements buffer.Buffer (reserve charge included).
func (b *Buffer) Stored() float64 {
	var e float64
	for _, c := range b.banks {
		e += c.Energy()
	}
	return e
}

// Capacitance implements buffer.Buffer: the active rail capacitance.
func (b *Buffer) Capacitance() float64 {
	var cc float64
	for _, c := range b.active() {
		cc += c.C
	}
	return cc
}

// Tick implements buffer.Buffer.
func (b *Buffer) Tick(now, dt float64, deviceOn bool) {
	for _, c := range b.banks {
		b.ledger.Leaked += c.Leak(dt)
		b.ledger.Clipped += c.Clip()
	}
	if !deviceOn {
		// Capybara's mode logic runs on the device.
		b.poll = 1 / b.cfg.PollHz
		return
	}
	over := (b.cfg.BaseOverheadW + b.cfg.OverheadPerBankW*float64(b.mode+1)) * dt
	var drawn float64
	for _, c := range b.active() {
		drawn += c.Draw(over * c.C / b.Capacitance())
	}
	b.ledger.Overhead += drawn
	b.poll -= dt
	if b.poll <= 0 {
		b.poll += 1 / b.cfg.PollHz
		b.controllerPoll()
	}
}

// controllerPoll steps the mode ladder against the comparator thresholds.
func (b *Buffer) controllerPoll() {
	v := b.OutputVoltage()
	switch {
	case v >= b.cfg.VHigh && b.mode < len(b.banks)-1:
		// Connect the next reserve bank in parallel — but only once the
		// background charging has brought it near the rail voltage;
		// paralleling a half-charged reserve would dump the rail into it.
		// Until then the system waits, which is exactly the §2.3
		// speculation problem: capacity exists but is not usable yet.
		next := b.banks[b.mode+1]
		if next.Voltage() < v-0.25 {
			return
		}
		b.mode++
		b.ledger.SwitchLoss += b.equalize()
	case v <= b.cfg.VLow && b.mode > 0:
		// Disconnect the most recently added bank. Its residual charge
		// strands on the reserve (recoverable only if the mode climbs
		// again) — unlike REACT's series reclamation there is no way to
		// boost it back onto the rail.
		b.mode--
	}
}

// equalize parallels the active banks through the circuit.Parallel
// kernels, as Morphy's equalize does for its chains, and returns the
// charge-sharing loss.
func (b *Buffer) equalize() float64 {
	p := circuit.NewParallel()
	for _, c := range b.active() {
		p.Add(c.C, c.Voltage())
	}
	v, moves := p.Settle()
	if !moves {
		return 0
	}
	var before float64
	for _, c := range b.active() {
		before += c.Energy()
	}
	after := 0.0
	for _, c := range b.active() {
		c.AddCharge(circuit.EqualizeCharge(c.C, c.Voltage(), v))
		after += c.Energy()
	}
	return circuit.GuardLoss(before - after)
}

// QuiescentOff implements buffer.Quiescent. A device-off tick leaks and
// clips every bank, then resets the poll phase; it is a no-op exactly when
// every bank has nothing to leak or clip and the poll timer already sits at
// its reset value (true from the first off-tick on, since the reset is
// idempotent). The comparisons mirror circuit.Capacitor.Leak/Clip and Tick
// bit for bit.
func (b *Buffer) QuiescentOff() bool {
	for _, c := range b.banks {
		if c.LeakI > 0 && c.Q > 0 {
			return false
		}
		if c.VMax > 0 && c.Voltage() > c.VMax {
			return false
		}
	}
	//lint:reactlint-ignore dtarith poll is assigned exactly 1/PollHz on re-arm, so bit-identity means the timer is freshly reset
	return b.poll == 1/b.cfg.PollHz
}

// Ledger implements buffer.Buffer.
func (b *Buffer) Ledger() *buffer.Ledger { return &b.ledger }

// SoftwareOverheadFraction implements buffer.Buffer: mode checks are a few
// comparisons per poll, far below REACT's bank state machines; treat as
// free.
func (b *Buffer) SoftwareOverheadFraction() float64 { return 0 }

// Level implements buffer.Leveler: the current mode.
func (b *Buffer) Level() int { return b.mode }

// MaxLevel implements buffer.Leveler.
func (b *Buffer) MaxLevel() int { return len(b.banks) - 1 }

// GuaranteedEnergy implements buffer.Leveler: reaching mode k required the
// rail at V_high on the mode k−1 capacitance.
func (b *Buffer) GuaranteedEnergy(level int) float64 {
	if level <= 0 {
		return 0
	}
	if level > b.MaxLevel() {
		level = b.MaxLevel()
	}
	var cc float64
	for _, c := range b.banks[:level] {
		cc += c.C
	}
	return 0.5 * cc * (b.cfg.VHigh*b.cfg.VHigh - 1.8*1.8)
}
