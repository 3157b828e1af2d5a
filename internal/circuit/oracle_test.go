package circuit_test

// The charge-move tests of the Node-level helpers in simtest — the
// differential oracle the buffers are pinned against — including the
// paper's §3.3.1 charge-sharing loss examples. They live here, in an
// external test package, because the oracle composes this package's
// kernels.

import (
	"math"
	"testing"
	"testing/quick"

	"react/internal/circuit"
	"react/internal/simtest"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

// TestPaperLossFourCap reproduces the first worked example in §3.3.1: four
// capacitors C in series charged to total V; one capacitor is removed from
// the chain and placed in parallel with the remaining three-series chain.
// The paper derives a final voltage of 3V/8 and a 25 % energy loss.
func TestPaperLossFourCap(t *testing.T) {
	const C, V = 1e-3, 4.0
	caps := make([]*circuit.Capacitor, 4)
	for i := range caps {
		caps[i] = &circuit.Capacitor{C: C}
		caps[i].SetVoltage(V / 4) // series charging leaves members equal
	}
	full := circuit.NewChain(caps...)
	eOld := full.Energy()
	approx(t, eOld, 0.5*(C/4)*V*V, 1e-12, "E_old = ½(C/4)V²")

	three := circuit.NewChain(caps[0], caps[1], caps[2])
	single := circuit.NewChain(caps[3])
	vNew, loss := simtest.EqualizeParallel(three, single)

	approx(t, vNew, 3*V/8, 1e-9, "final voltage 3V/8")
	eNew := three.Energy() + single.Energy()
	approx(t, eNew/eOld, 0.75, 1e-9, "75 % of energy conserved")
	approx(t, loss, 0.25*eOld, 1e-9, "25 % dissipated")
}

// TestPaperLossEightCap reproduces the second worked example in §3.3.1: an
// eight-capacitor array transitions from all-parallel to
// seven-series-one-parallel, wasting 56.25 % of its stored energy.
func TestPaperLossEightCap(t *testing.T) {
	const C, V = 2e-3, 3.0
	caps := make([]*circuit.Capacitor, 8)
	for i := range caps {
		caps[i] = &circuit.Capacitor{C: C}
		caps[i].SetVoltage(V) // all-parallel: every member at V
	}
	eOld := 8 * 0.5 * C * V * V

	seven := circuit.NewChain(caps[:7]...)
	one := circuit.NewChain(caps[7])
	_, loss := simtest.EqualizeParallel(seven, one)

	eNew := seven.Energy() + one.Energy()
	approx(t, eNew/eOld, 0.4375, 1e-9, "43.75 % of energy conserved")
	approx(t, loss/eOld, 0.5625, 1e-9, "56.25 % dissipated")
}

func TestEqualizeParallelEqualVoltagesLossless(t *testing.T) {
	a := &circuit.Capacitor{C: 1e-3}
	b := &circuit.Capacitor{C: 5e-3}
	a.SetVoltage(2.5)
	b.SetVoltage(2.5)
	v, loss := simtest.EqualizeParallel(a, b)
	approx(t, v, 2.5, 1e-12, "equal-voltage equalization keeps voltage")
	approx(t, loss, 0, 1e-12, "equal-voltage equalization is lossless")
}

func TestEqualizeParallelEmpty(t *testing.T) {
	v, loss := simtest.EqualizeParallel()
	if v != 0 || loss != 0 {
		t.Error("no nodes, no effect")
	}
}

func TestTransferOneWayBlocksReverse(t *testing.T) {
	lo := &circuit.Capacitor{C: 1e-3}
	hi := &circuit.Capacitor{C: 1e-3}
	lo.SetVoltage(1.0)
	hi.SetVoltage(3.0)
	dq, loss := simtest.TransferOneWay(lo, hi, 0)
	if dq != 0 || loss != 0 {
		t.Error("diode must not conduct from low to high")
	}
}

func TestTransferOneWayEqualizes(t *testing.T) {
	src := &circuit.Capacitor{C: 1e-3}
	dst := &circuit.Capacitor{C: 1e-3}
	src.SetVoltage(3.0)
	dst.SetVoltage(1.0)
	dq, loss := simtest.TransferOneWay(src, dst, 0)
	approx(t, src.Voltage(), 2.0, 1e-9, "source settles at midpoint")
	approx(t, dst.Voltage(), 2.0, 1e-9, "dest settles at midpoint")
	approx(t, dq, 1e-3, 1e-12, "transferred charge")
	// Equal caps from 3 V and 1 V: loss = ¼C(ΔV)² = ¼·1e-3·4 = 1 mJ.
	approx(t, loss, 1e-3, 1e-9, "conduction loss")
}

func TestTransferOneWaySchottkyDropStopsEarly(t *testing.T) {
	src := &circuit.Capacitor{C: 1e-3}
	dst := &circuit.Capacitor{C: 1e-3}
	src.SetVoltage(3.0)
	dst.SetVoltage(1.0)
	_, _ = simtest.TransferOneWay(src, dst, 0.3)
	approx(t, src.Voltage()-dst.Voltage(), 0.3, 1e-9, "conduction stops at the forward drop")
}

func TestStoreEnergyFromZeroVolts(t *testing.T) {
	c := &circuit.Capacitor{C: 1e-3}
	dq, loss := simtest.StoreEnergy(c, 1e-3, 0)
	approx(t, loss, 0, 1e-15, "ideal diode, no drop loss")
	approx(t, c.Energy(), 1e-3, 1e-12, "all energy stored")
	if dq <= 0 {
		t.Error("charge must be delivered")
	}
}

func TestStoreEnergyWithDropLoses(t *testing.T) {
	c := &circuit.Capacitor{C: 1e-3}
	c.SetVoltage(2.0)
	dq, loss := simtest.StoreEnergy(c, 1e-3, 0.3)
	approx(t, loss, 0.3*dq, 1e-15, "drop loss = vDrop·dq")
	approx(t, c.Energy()-0.5*1e-3*4, 1e-3-loss, 1e-9, "stored = delivered − loss")
}

func TestStoreEnergyNowhere(t *testing.T) {
	ch := circuit.NewChain()
	_, loss := simtest.StoreEnergy(ch, 1e-3, 0)
	approx(t, loss, 1e-3, 0, "zero capacitance burns the energy")
}

func TestDrawEnergyExact(t *testing.T) {
	c := &circuit.Capacitor{C: 1e-3}
	c.SetVoltage(3.0)
	before := c.Energy()
	got := simtest.DrawEnergy(c, 1e-3)
	approx(t, got, 1e-3, 1e-12, "requested energy drawn")
	approx(t, before-c.Energy(), 1e-3, 1e-12, "stored energy fell by the same amount")
}

func TestDrawEnergyDrainsCompletely(t *testing.T) {
	c := &circuit.Capacitor{C: 1e-3}
	c.SetVoltage(2.0)
	avail := c.Energy()
	got := simtest.DrawEnergy(c, 10*avail)
	approx(t, got, avail, 1e-12, "over-draw returns what was available")
	approx(t, c.Voltage(), 0, 1e-12, "capacitor empty")
}

func TestDrawEnergyFromEmpty(t *testing.T) {
	c := &circuit.Capacitor{C: 1e-3}
	if simtest.DrawEnergy(c, 1) != 0 {
		t.Error("nothing to draw from an empty capacitor")
	}
}

// Property: equalizing any pair of randomly charged capacitors conserves
// charge exactly and never creates energy.
func TestEqualizeParallelProperties(t *testing.T) {
	f := func(c1u, c2u, v1u, v2u uint16) bool {
		c1 := 1e-6 + float64(c1u)*1e-7
		c2 := 1e-6 + float64(c2u)*1e-7
		v1 := float64(v1u) / 1e4 * 5
		v2 := float64(v2u) / 1e4 * 5
		a := &circuit.Capacitor{C: c1}
		b := &circuit.Capacitor{C: c2}
		a.SetVoltage(v1)
		b.SetVoltage(v2)
		qBefore := a.Q + b.Q
		eBefore := a.Energy() + b.Energy()
		_, loss := simtest.EqualizeParallel(a, b)
		qAfter := a.Q + b.Q
		eAfter := a.Energy() + b.Energy()
		chargeOK := math.Abs(qBefore-qAfter) <= 1e-12*(1+math.Abs(qBefore))
		energyOK := loss >= 0 && math.Abs(eBefore-eAfter-loss) <= 1e-9*(1+eBefore)
		voltOK := math.Abs(a.Voltage()-b.Voltage()) <= 1e-9
		return chargeOK && energyOK && voltOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: a store/draw round trip through an ideal diode returns the
// energy put in, to numerical tolerance.
func TestStoreDrawRoundTrip(t *testing.T) {
	f := func(cu, eu uint16) bool {
		c := &circuit.Capacitor{C: 1e-6 + float64(cu)*1e-7}
		dE := 1e-9 + float64(eu)*1e-8
		simtest.StoreEnergy(c, dE, 0)
		got := simtest.DrawEnergy(c, dE)
		return math.Abs(got-dE) <= 1e-9*(1+dE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: one-way transfer never pushes the destination above the source's
// original voltage and always dissipates a non-negative amount.
func TestTransferOneWayProperties(t *testing.T) {
	f := func(v1u, v2u uint16) bool {
		src := &circuit.Capacitor{C: 2e-3}
		dst := &circuit.Capacitor{C: 0.5e-3}
		vs := float64(v1u) / 1e4 * 5
		vd := float64(v2u) / 1e4 * 5
		src.SetVoltage(vs)
		dst.SetVoltage(vd)
		qBefore := src.Q + dst.Q
		_, loss := simtest.TransferOneWay(src, dst, 0)
		if loss < 0 {
			return false
		}
		if dst.Voltage() > vs+1e-9 && vs > vd {
			return false
		}
		return math.Abs(src.Q+dst.Q-qBefore) <= 1e-12*(1+qBefore)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Regression: drawing almost exactly the stored energy used to produce a
// NaN when rounding pushed the discriminant v² − 2dE/C fractionally
// negative while dE was still below the computed extractable maximum.
func TestDrawEnergyExactDrainNoNaN(t *testing.T) {
	c := &circuit.Capacitor{C: 1e-6 + float64(0x2540)*1e-7}
	dE := 1e-9 + float64(0x557e)*1e-8
	simtest.StoreEnergy(c, dE, 0)
	got := simtest.DrawEnergy(c, dE)
	if math.IsNaN(got) || math.Abs(got-dE) > 1e-9*(1+dE) {
		t.Errorf("round trip of %.12g returned %.12g", dE, got)
	}
	if c.Q < 0 || math.IsNaN(c.Q) {
		t.Errorf("charge corrupted: %g", c.Q)
	}
}

// Property: Capacitor.Store and Capacitor.Draw move exactly the charge the
// oracle's StoreEnergy and DrawEnergy move, bit for bit, including
// non-positive requests, diode drops and over-draws.
func TestCapacitorStoreDrawMatchOracle(t *testing.T) {
	f := func(cu, vu, eu uint16, drop bool) bool {
		c := 1e-6 + float64(cu)*1e-7
		got := &circuit.Capacitor{C: c}
		got.SetVoltage(float64(vu) / 1e4 * 5)
		want := *got
		dE := (float64(eu) - 1000) * 1e-8
		vDrop := 0.0
		if drop {
			vDrop = 0.3
		}
		gq, gl := got.Store(dE, vDrop)
		wq, wl := simtest.StoreEnergy(&want, dE, vDrop)
		same := math.Float64bits(gq) == math.Float64bits(wq) &&
			math.Float64bits(gl) == math.Float64bits(wl) &&
			math.Float64bits(got.Q) == math.Float64bits(want.Q)
		for _, d := range []float64{dE, 3 * dE, 1e3} {
			same = same && math.Float64bits(got.Draw(d)) == math.Float64bits(simtest.DrawEnergy(&want, d)) &&
				math.Float64bits(got.Q) == math.Float64bits(want.Q)
		}
		return same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
