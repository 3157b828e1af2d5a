// Package morphy implements the Morphy baseline (Yang et al., SenSys'21):
// a unified buffer of identical capacitors joined by a full switching
// network, reconfigurable in software across a ladder of series/parallel
// partitions.
//
// Unlike REACT's isolated banks, the whole array is one electrical network:
// every reconfiguration places capacitors (or series chains) at different
// potentials in parallel, and the equalizing current dissipates stored
// energy in the switches — the loss mechanism the paper analyses in §3.3.1
// and measures in §5.5. This package tracks per-capacitor charge, so those
// losses fall out of the charge-sharing physics exactly.
package morphy

import (
	"react/internal/buffer"
	"react/internal/circuit"
)

// Config describes a Morphy array.
type Config struct {
	// NumCaps identical capacitors of UnitC farads each.
	NumCaps int
	UnitC   float64
	// LeakI is per-capacitor leakage at VRated.
	LeakI  float64
	VRated float64
	// Partitions is the ladder of configurations in increasing equivalent
	// capacitance. Each partition lists series-chain lengths; the chains
	// are connected in parallel. Chain lengths must sum to NumCaps.
	Partitions [][]int
	// VHigh, VLow are the controller thresholds; VMax is the rail clip.
	VHigh, VLow, VMax float64
	// FabricEfficiency is the fraction of incoming charge that survives
	// the trip through the switching network. Unlike REACT's two ideal
	// diodes, every Morphy capacitor sits behind series power switches in
	// a fully connected fabric, and the design charges through charge-pump
	// restructuring; the original prototype reports meaningful conduction
	// loss on top of reconfiguration loss. Default 0.85.
	FabricEfficiency float64
	// PollHz is the controller polling rate. Morphy's controller is a
	// separate, independently powered microcontroller (the paper powers it
	// over USB), so it polls whether or not the main device is on.
	PollHz float64
}

// DefaultConfig mirrors the paper's Morphy implementation: eight 2 mF
// electrolytic capacitors (≈25.2 µA leakage at 6.3 V, derated to typical),
// eleven configurations spanning 0.25–16 mF.
func DefaultConfig() Config {
	return Config{
		NumCaps: 8,
		UnitC:   2e-3,
		LeakI:   25.2e-6 * 0.05,
		VRated:  6.3,
		Partitions: [][]int{
			{8},                      // 0.25 mF
			{4, 4},                   // 1 mF
			{3, 3, 2},                // 2.33 mF
			{4, 2, 2},                // 2.5 mF
			{2, 2, 2, 2},             // 4 mF
			{3, 2, 2, 1},             // 4.67 mF
			{3, 3, 1, 1},             // 5.33 mF
			{2, 2, 2, 1, 1},          // 7 mF
			{2, 2, 1, 1, 1, 1},       // 10 mF
			{2, 1, 1, 1, 1, 1, 1},    // 13 mF
			{1, 1, 1, 1, 1, 1, 1, 1}, // 16 mF
		},
		VHigh:            3.5,
		VLow:             1.9,
		VMax:             3.6,
		PollHz:           10,
		FabricEfficiency: 0.78,
	}
}

// Buffer is a Morphy array. It implements buffer.Buffer and buffer.Leveler.
type Buffer struct {
	cfg     Config
	caps    []*circuit.Capacitor
	configs [][]*circuit.Chain // each partition's chains, built once in New
	chains  []*circuit.Chain   // configs[idx]
	idx     int                // current partition index
	ledger  buffer.Ledger
	poll    float64
	holdoff int // polls remaining before another reconfiguration is allowed
}

var (
	_ buffer.Buffer  = (*Buffer)(nil)
	_ buffer.Leveler = (*Buffer)(nil)
)

// New builds a Morphy buffer. It panics if a partition does not cover
// exactly NumCaps capacitors (a configuration bug, not a runtime state).
func New(cfg Config) *Buffer {
	for _, p := range cfg.Partitions {
		total := 0
		for _, m := range p {
			total += m
		}
		if total != cfg.NumCaps {
			panic("morphy: partition does not cover all capacitors")
		}
	}
	b := &Buffer{cfg: cfg}
	for i := 0; i < cfg.NumCaps; i++ {
		b.caps = append(b.caps, &circuit.Capacitor{
			C: cfg.UnitC, LeakI: cfg.LeakI, VRated: cfg.VRated,
		})
	}
	for idx, part := range cfg.Partitions {
		var chains []*circuit.Chain
		at := idx
		for _, m := range part {
			caps := make([]*circuit.Capacitor, m)
			for i := range caps {
				caps[i] = b.caps[(at+i)%cfg.NumCaps]
			}
			at += m
			chains = append(chains, circuit.NewChain(caps...))
		}
		b.configs = append(b.configs, chains)
	}
	b.rebuild()
	if cfg.PollHz > 0 {
		b.poll = 1 / cfg.PollHz
	}
	return b
}

// rebuild switches the fabric to the current partition's chains. Each
// configuration starts its assignment at a different capacitor (rotating by
// the partition index, as New builds them): the fixed switch fabric's
// configurations do not nest, so stepping the ladder reshuffles which
// capacitors share a chain — and reshuffling charged capacitors into new
// chains is where the §3.3.1 dissipation comes from.
func (b *Buffer) rebuild() { b.chains = b.configs[b.idx] }

// Name implements buffer.Buffer.
func (b *Buffer) Name() string { return "Morphy" }

// equalize relaxes the parallel chain network through the circuit.Parallel
// kernels, charging any imbalance to the switch-loss ledger. Tick
// equalizes every step; Settle's early-out keeps that cheap.
func (b *Buffer) equalize() {
	p := circuit.NewParallel()
	for _, ch := range b.chains {
		p.Add(ch.Capacitance(), ch.Voltage())
	}
	v, moves := p.Settle()
	if !moves {
		return
	}
	var before float64
	for _, ch := range b.chains {
		before += ch.Energy()
	}
	after := 0.0
	for _, ch := range b.chains {
		ch.AddCharge(circuit.EqualizeCharge(ch.Capacitance(), ch.Voltage(), v))
		after += ch.Energy()
	}
	b.ledger.SwitchLoss += circuit.GuardLoss(before - after)
}

// Harvest implements buffer.Buffer: charge splits across the paralleled
// chains in proportion to chain capacitance (they sit at a common rail),
// after paying the fabric conduction loss.
func (b *Buffer) Harvest(dE float64) {
	if dE <= 0 {
		return
	}
	b.ledger.Harvested += dE
	if eff := b.cfg.FabricEfficiency; eff > 0 && eff < 1 {
		b.ledger.SwitchLoss += dE * (1 - eff)
		dE *= eff
	}
	var total float64
	for _, ch := range b.chains {
		total += ch.Capacitance()
	}
	if total == 0 {
		b.ledger.Clipped += dE
		return
	}
	for _, ch := range b.chains {
		c := ch.Capacitance()
		dq, _ := circuit.StoreCharge(c, ch.Voltage(), dE*c/total, 0)
		ch.AddCharge(dq)
	}
	b.clip()
}

// Draw implements buffer.Buffer. The chains sit in parallel, so load
// current flows from whichever chain still holds charge; the proportional
// split is retried so an imbalanced (drained) chain does not starve the
// load while its neighbours remain charged.
func (b *Buffer) Draw(dE float64) float64 {
	var total float64
	for _, ch := range b.chains {
		total += ch.Capacitance()
	}
	if total == 0 {
		return 0
	}
	remaining := dE
	for iter := 0; iter < 4 && remaining > 1e-18; iter++ {
		var got float64
		for _, ch := range b.chains {
			got += drawChain(ch, remaining*ch.Capacitance()/total)
		}
		remaining -= got
		if got == 0 {
			break
		}
	}
	consumed := dE - remaining
	b.ledger.Consumed += consumed
	return consumed
}

// drawChain withdraws up to dE joules from one chain (see
// circuit.DrawCharge) and returns the energy removed.
func drawChain(ch *circuit.Chain, dE float64) float64 {
	dq := circuit.DrawCharge(ch.Capacitance(), ch.Voltage(), dE)
	if dq == 0 {
		return 0
	}
	before := ch.Energy()
	ch.AddCharge(-dq)
	return circuit.Drawn(before, ch.Energy())
}

// OutputVoltage implements buffer.Buffer: the common rail voltage. The
// chains are kept equalized, so the capacitance-weighted mean is exact in
// steady state.
func (b *Buffer) OutputVoltage() float64 {
	var qc, c float64
	for _, ch := range b.chains {
		cc := ch.Capacitance()
		qc += cc * ch.Voltage()
		c += cc
	}
	if c == 0 {
		return 0
	}
	return qc / c
}

// Stored implements buffer.Buffer.
func (b *Buffer) Stored() float64 {
	var e float64
	for _, c := range b.caps {
		e += c.Energy()
	}
	return e
}

// Capacitance implements buffer.Buffer.
func (b *Buffer) Capacitance() float64 {
	var c float64
	for _, ch := range b.chains {
		c += ch.Capacitance()
	}
	return c
}

// clip enforces the rail overvoltage limit by discarding terminal charge.
func (b *Buffer) clip() {
	for _, ch := range b.chains {
		v := ch.Voltage()
		if b.cfg.VMax > 0 && v > b.cfg.VMax {
			before := ch.Energy()
			ch.AddCharge(-(v - b.cfg.VMax) * ch.Capacitance())
			b.ledger.Clipped += before - ch.Energy()
		}
	}
}

// Tick implements buffer.Buffer. Morphy's controller is externally powered,
// so polling proceeds regardless of deviceOn.
func (b *Buffer) Tick(now, dt float64, deviceOn bool) {
	b.equalize()
	for _, c := range b.caps {
		b.ledger.Leaked += c.Leak(dt)
	}
	b.clip()
	b.poll -= dt
	if b.poll <= 0 {
		b.poll += 1 / b.cfg.PollHz
		b.controllerPoll()
	}
}

// controllerPoll steps the partition ladder: up on overvoltage (more
// capacitance to absorb surplus), down on undervoltage (less capacitance to
// boost the rail). Every step reshuffles charged capacitors into new chains
// and pays the equalization loss.
//
// A reconfiguration holds off further steps for several polls: an expansion
// necessarily pulls the rail down (charge conservation across a larger
// equivalent capacitance), and reacting to that self-induced sag with an
// immediate contraction would oscillate the array, dissipating the buffer
// in the switches within seconds.
func (b *Buffer) controllerPoll() {
	if b.holdoff > 0 {
		b.holdoff--
		return
	}
	v := b.OutputVoltage()
	switch {
	case v >= b.cfg.VHigh && b.idx < len(b.cfg.Partitions)-1:
		b.idx++
		b.rebuild()
		b.equalize()
		b.holdoff = 10
	case v <= b.cfg.VLow && b.idx > 0:
		b.idx--
		b.rebuild()
		b.equalize()
		b.holdoff = 10
	}
}

// Ledger implements buffer.Buffer.
func (b *Buffer) Ledger() *buffer.Ledger { return &b.ledger }

// SoftwareOverheadFraction implements buffer.Buffer: the controller runs on
// a separate externally powered microcontroller, costing the device nothing.
func (b *Buffer) SoftwareOverheadFraction() float64 { return 0 }

// Level implements buffer.Leveler: the current partition index.
func (b *Buffer) Level() int { return b.idx }

// MaxLevel implements buffer.Leveler.
func (b *Buffer) MaxLevel() int { return len(b.cfg.Partitions) - 1 }

// GuaranteedEnergy implements buffer.Leveler: reaching level k required the
// rail at V_high on the level k−1 partition.
func (b *Buffer) GuaranteedEnergy(level int) float64 {
	if level <= 0 {
		return 0
	}
	if level > b.MaxLevel() {
		level = b.MaxLevel()
	}
	var c float64
	for _, m := range b.cfg.Partitions[level-1] {
		c += b.cfg.UnitC / float64(m)
	}
	// Usable energy between V_high and the 1.8 V device floor.
	return 0.5 * c * (b.cfg.VHigh*b.cfg.VHigh - 1.8*1.8)
}
