package circuit

import (
	"math"
	"testing"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

func TestCapacitorVoltageEnergy(t *testing.T) {
	c := &Capacitor{C: 1e-3}
	c.SetVoltage(3.3)
	approx(t, c.Voltage(), 3.3, 1e-12, "voltage")
	approx(t, c.Energy(), 0.5*1e-3*3.3*3.3, 1e-12, "energy")
	approx(t, c.Capacitance(), 1e-3, 0, "capacitance")
}

func TestCapacitorZeroValue(t *testing.T) {
	var c Capacitor
	if c.Voltage() != 0 || c.Energy() != 0 {
		t.Errorf("zero-value capacitor should report zero V and E, got %g V %g J", c.Voltage(), c.Energy())
	}
}

func TestCapacitorAddChargeTruncatesAtEmpty(t *testing.T) {
	c := &Capacitor{C: 1e-3}
	c.SetVoltage(1.0) // Q = 1 mC
	moved := c.AddCharge(-2e-3)
	approx(t, moved, -1e-3, 1e-15, "over-withdrawal truncated")
	approx(t, c.Q, 0, 1e-15, "charge empties exactly")
}

func TestCapacitorClip(t *testing.T) {
	c := &Capacitor{C: 1e-3, VMax: 3.6}
	c.SetVoltage(4.0)
	lost := c.Clip()
	approx(t, c.Voltage(), 3.6, 1e-12, "clipped voltage")
	want := 0.5 * 1e-3 * (4.0*4.0 - 3.6*3.6)
	approx(t, lost, want, 1e-12, "clipped energy")
	if c.Clip() != 0 {
		t.Error("second clip should discard nothing")
	}
}

func TestCapacitorClipDisabled(t *testing.T) {
	c := &Capacitor{C: 1e-3}
	c.SetVoltage(100)
	if c.Clip() != 0 {
		t.Error("VMax=0 must disable clipping")
	}
}

func TestCapacitorLeakScalesWithVoltage(t *testing.T) {
	c := &Capacitor{C: 1e-3, LeakI: 28e-6, VRated: 6.3}
	c.SetVoltage(3.15) // half of rated -> half leakage current
	before := c.Q
	lost := c.Leak(1.0)
	wantDQ := 14e-6 // 28 µA * 0.5 * 1 s
	approx(t, before-c.Q, wantDQ, 1e-12, "leaked charge")
	if lost <= 0 {
		t.Error("leak must lose energy")
	}
}

func TestCapacitorLeakEmptiesNoFurther(t *testing.T) {
	c := &Capacitor{C: 1e-9, LeakI: 1e-3, VRated: 1}
	c.SetVoltage(1)
	c.Leak(1e6)
	if c.Q < 0 {
		t.Errorf("leak drove charge negative: %g", c.Q)
	}
}

func TestCapacitorLeakZeroCurrent(t *testing.T) {
	c := &Capacitor{C: 1e-3}
	c.SetVoltage(3)
	if c.Leak(100) != 0 {
		t.Error("no leakage current specified, no energy should be lost")
	}
}

func TestChainEquivalents(t *testing.T) {
	a := &Capacitor{C: 2e-3}
	b := &Capacitor{C: 2e-3}
	ch := NewChain(a, b)
	approx(t, ch.Capacitance(), 1e-3, 1e-15, "two equal caps in series halve capacitance")
	a.SetVoltage(1.5)
	b.SetVoltage(2.0)
	approx(t, ch.Voltage(), 3.5, 1e-12, "chain voltage sums members")
	approx(t, ch.Energy(), a.Energy()+b.Energy(), 1e-15, "chain energy sums members")
}

func TestChainAddChargeCommonCurrent(t *testing.T) {
	a := &Capacitor{C: 1e-3}
	b := &Capacitor{C: 2e-3}
	ch := NewChain(a, b)
	ch.AddCharge(1e-3)
	approx(t, a.Q, 1e-3, 1e-15, "series member charge a")
	approx(t, b.Q, 1e-3, 1e-15, "series member charge b")
	approx(t, ch.Voltage(), 1.0+0.5, 1e-12, "voltage after charging")
}

func TestChainWithdrawReverseCharges(t *testing.T) {
	a := &Capacitor{C: 1e-3}
	b := &Capacitor{C: 1e-3}
	a.Q = 1e-3
	b.Q = 2e-3
	ch := NewChain(a, b)
	moved := ch.AddCharge(-1.5e-3)
	approx(t, moved, -1.5e-3, 1e-15, "series current keeps flowing through a drained member")
	approx(t, a.Q, -0.5e-3, 1e-15, "drained member charges in reverse")
	approx(t, b.Q, 0.5e-3, 1e-15, "other member discharges normally")
	approx(t, ch.Voltage(), 0, 1e-12, "terminal voltage nets to zero")
}
