package circuit

import "math"

// Chain is a set of capacitors connected in series. Terminal charge passes
// through every member equally; terminal voltage is the sum of member
// voltages. Members need not hold equal charge — an imbalanced chain is how
// Morphy-style networks lose energy when later re-paralleled.
type Chain struct {
	Caps []*Capacitor

	// seriesC caches the series-equivalent capacitance. Member capacitances
	// are fixed for the life of a chain (only charge moves), so NewChain
	// computes it once; Capacitance is on the simulation's per-tick path.
	seriesC   float64
	hasCached bool
}

// NewChain builds a series chain over caps.
func NewChain(caps ...*Capacitor) *Chain {
	return &Chain{Caps: caps, seriesC: seriesCapacitance(caps), hasCached: true}
}

func seriesCapacitance(caps []*Capacitor) float64 {
	inv := 0.0
	for _, c := range caps {
		if c.C == 0 {
			return 0
		}
		inv += 1 / c.C
	}
	if inv == 0 {
		return 0
	}
	return 1 / inv
}

// Capacitance returns the series-equivalent capacitance 1/Σ(1/Cᵢ).
func (ch *Chain) Capacitance() float64 {
	if ch.hasCached {
		return ch.seriesC
	}
	return seriesCapacitance(ch.Caps)
}

// Voltage returns the terminal voltage Σ Vᵢ.
func (ch *Chain) Voltage() float64 {
	v := 0.0
	for _, c := range ch.Caps {
		v += c.Voltage()
	}
	return v
}

// Energy returns the total stored energy Σ qᵢ²/(2Cᵢ).
func (ch *Chain) Energy() float64 {
	e := 0.0
	for _, c := range ch.Caps {
		e += c.Energy()
	}
	return e
}

// AddCharge moves dq through the chain terminal: every member's charge
// changes by dq (series current is common). A member whose charge crosses
// zero keeps conducting and charges in reverse — exactly what happens to a
// drained capacitor in a series string without bypass diodes. Discharge is
// bounded by the terminal voltage reaching zero, not by any single member.
func (ch *Chain) AddCharge(dq float64) float64 {
	for _, c := range ch.Caps {
		c.Q += dq
	}
	return dq
}

// Parallel accumulates the terminals of a parallel network — capacitance
// and voltage, node by node — for the equalization arithmetic. A buffer
// that parallels charged nodes feeds it each node, calls Settle, moves
// EqualizeCharge onto every node and charges GuardLoss(E_before − E_after)
// as switch loss.
//
// This is the lossy operation at the heart of the paper's §3.3.1 analysis:
// a unified switched-capacitor array pays it on every reconfiguration,
// while REACT's isolated banks never connect charged elements at different
// potentials.
type Parallel struct {
	csum, qsum, minV, maxV float64
}

// NewParallel returns an empty accumulator.
func NewParallel() Parallel {
	return Parallel{minV: math.Inf(1), maxV: math.Inf(-1)}
}

// Add joins a node of capacitance c at voltage v to the network.
func (p *Parallel) Add(c, v float64) {
	p.csum += c
	p.qsum += c * v
	if v < p.minV {
		p.minV = v
	}
	if v > p.maxV {
		p.maxV = v
	}
}

// Settle returns the common voltage after equalization and whether any
// charge moves: false for a network with no capacitance (v = 0), and for
// one already within a nanovolt of equal. The latter is the steady-state
// fast path — the redistribution and its dissipation are below rounding,
// and simulation loops equalize every tick.
func (p *Parallel) Settle() (v float64, moves bool) {
	if p.csum == 0 {
		return 0, false
	}
	v = p.qsum / p.csum
	return v, !(p.maxV-p.minV < 1e-9)
}

// EqualizeCharge is the terminal charge that brings a node of capacitance
// c from voltage nv to the common voltage v.
//
// A kernel whose charge ends in a product rounds it with an explicit
// conversion: a caller that inlines the kernel and adds the result to a
// stored charge must not fuse the product into that sum (FMA on arm64 and
// similar targets).
func EqualizeCharge(c, nv, v float64) float64 {
	return float64(c * (v - nv))
}

// GuardLoss returns a dissipation computed as an energy difference, with a
// result that is negative by rounding alone (above −1e-15 J) zeroed.
func GuardLoss(loss float64) float64 {
	if loss < 0 && loss > -1e-15 {
		return 0
	}
	return loss
}

// TransferCharge is the charge a diode of forward drop vDrop conducts from
// a source (capacitance cs at voltage vs) to a destination (cd at vd)
// before V(src) = V(dst) + vDrop. ok is false when the diode does not
// conduct: src is not above that level, or either side has no capacitance.
func TransferCharge(cs, vs, cd, vd, vDrop float64) (dq float64, ok bool) {
	if vs <= vd+vDrop {
		return 0, false
	}
	if cs == 0 || cd == 0 {
		return 0, false
	}
	// Charge balance: vs - dq/cs = vd + dq/cd + vDrop.
	return (vs - vd - vDrop) * cs * cd / (cs + cd), true
}

// StoreCharge is the charge that delivers dE joules at constant power into
// capacitance c at terminal voltage v through a diode with forward drop
// vDrop, integrated exactly (including from zero volts), and the energy
// lost in the drop; the remainder, dE − loss, ends up stored. It returns
// 0, 0 for dE ≤ 0, and 0, dE for c = 0 (nowhere to put it; burned in the
// source).
//
// Derivation: pushing charge dq into capacitance C at initial voltage v
// stores v·dq + dq²/(2C); the source additionally pays vDrop·dq. Solving
// dE = (v+vDrop)·dq + dq²/(2C) for dq gives the quadratic below.
func StoreCharge(c, v, dE, vDrop float64) (dq, loss float64) {
	if dE <= 0 {
		return 0, 0
	}
	if c == 0 {
		return 0, dE
	}
	v += vDrop
	dq = float64(c * (math.Sqrt(v*v+2*dE/c) - v))
	return dq, vDrop * dq
}

// DrawCharge is the terminal charge to withdraw from capacitance c at
// voltage v to supply dE joules, integrated exactly over the voltage sag.
// It is the full charge c·v when dE reaches the energy extractable before
// the voltage hits zero, and 0 when there is nothing to draw (dE ≤ 0,
// c = 0 or v ≤ 0).
func DrawCharge(c, v, dE float64) float64 {
	if dE <= 0 || c == 0 || v <= 0 {
		return 0
	}
	// Energy extractable at the terminal before voltage reaches zero.
	maxTerm := c * v * v / 2
	// v·dq − dq²/(2C) = dE  ⇒  dq = C(v − sqrt(v² − 2dE/C)). When dE is
	// within rounding of maxTerm the radicand can come out negative even
	// though dE < maxTerm held; both cases drain the node fully.
	if rad := v*v - 2*dE/c; dE < maxTerm && rad > 0 {
		return float64(c * (v - math.Sqrt(rad)))
	}
	return float64(c * v)
}

// Drawn is the energy a withdrawal released, from the stored energy before
// and after it, floored at zero against rounding.
func Drawn(before, after float64) float64 {
	drawn := before - after
	if drawn < 0 {
		return 0
	}
	return drawn
}
