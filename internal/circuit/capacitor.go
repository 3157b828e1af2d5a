// Package circuit models the analog energy-storage elements that batteryless
// buffers are built from: capacitors, series chains, diodes, and the
// charge-sharing physics of switched-capacitor networks.
//
// Everything is charge-based. A capacitor stores charge Q on capacitance C;
// voltage is Q/C and energy is Q²/(2C). Reconfiguring a charged network
// conserves charge at every node but not energy: connecting elements at
// different potentials in parallel dissipates the difference in the switch
// resistance. The solvers in this package compute that dissipation exactly
// (E_before − E_after), which is the quantity REACT's bank-isolation design
// exists to avoid and the quantity that sinks Morphy-style unified arrays.
//
// Charge moves are scalar kernels over plain values (capacitance, voltage,
// energy, diode drop): StoreCharge, DrawCharge with Drawn, TransferCharge,
// and the Parallel accumulator with EqualizeCharge and GuardLoss. Buffers
// call them on their concrete nodes; Capacitor.Store and Capacitor.Draw
// wrap the first two for a single capacitor.
//
// Units are SI throughout: farads, coulombs, volts, joules, seconds, amps.
package circuit

// Capacitor is a single energy-storage element.
//
// The zero value is an empty 0 F capacitor and is not useful; construct with
// a positive capacitance. VMax, when positive, is the maximum operating
// voltage: charge pushed above it is clipped (discarded as heat by the
// protection circuit). LeakI is the leakage current at VRated; actual
// leakage scales linearly with the present voltage.
type Capacitor struct {
	C      float64 // capacitance, farads
	Q      float64 // stored charge, coulombs
	LeakI  float64 // leakage current at VRated, amps
	VRated float64 // voltage at which LeakI is specified
	VMax   float64 // maximum operating voltage; 0 disables clipping
}

// Voltage returns the terminal voltage Q/C.
func (c *Capacitor) Voltage() float64 {
	if c.C == 0 {
		return 0
	}
	return c.Q / c.C
}

// Energy returns the stored energy Q²/(2C).
func (c *Capacitor) Energy() float64 {
	if c.C == 0 {
		return 0
	}
	return c.Q * c.Q / (2 * c.C)
}

// Capacitance returns C, the terminal capacitance, matching Chain's.
func (c *Capacitor) Capacitance() float64 { return c.C }

// AddCharge moves dq onto (or, if negative, off) the capacitor. Charge may
// not go negative; over-draw is truncated at empty. The return value is the
// charge actually moved.
func (c *Capacitor) AddCharge(dq float64) float64 {
	if c.Q+dq < 0 {
		dq = -c.Q
	}
	c.Q += dq
	return dq
}

// Store delivers dE joules into the capacitor through a diode with forward
// drop vDrop (see StoreCharge) and returns the charge delivered and the
// energy lost in the drop.
func (c *Capacitor) Store(dE, vDrop float64) (dq, loss float64) {
	if dE <= 0 {
		return 0, 0
	}
	dq, loss = StoreCharge(c.C, c.Voltage(), dE, vDrop)
	c.AddCharge(dq)
	return dq, loss
}

// Draw withdraws up to dE joules from the capacitor (see DrawCharge) and
// returns the energy actually removed (less than dE only if it empties
// first).
func (c *Capacitor) Draw(dE float64) float64 {
	if dE <= 0 {
		return 0
	}
	dq := DrawCharge(c.C, c.Voltage(), dE)
	if dq == 0 {
		return 0
	}
	before := c.Energy()
	c.AddCharge(-dq)
	return Drawn(before, c.Energy())
}

// SetVoltage forces the capacitor to voltage v, discarding or creating
// charge as needed. Intended for initial conditions only.
func (c *Capacitor) SetVoltage(v float64) {
	c.Q = v * c.C
}

// Clip enforces the maximum operating voltage and returns the energy
// discarded (0 when within limits or when VMax is unset).
func (c *Capacitor) Clip() float64 {
	if c.VMax <= 0 || c.Voltage() <= c.VMax {
		return 0
	}
	before := c.Energy()
	c.Q = c.VMax * c.C
	return before - c.Energy()
}

// Leak removes leakage charge for an interval dt and returns the energy
// lost. Leakage current scales linearly with voltage relative to VRated,
// which matches datasheet behaviour closely enough for the µA currents
// involved.
func (c *Capacitor) Leak(dt float64) float64 {
	if c.LeakI <= 0 || c.Q <= 0 {
		return 0
	}
	v := c.Voltage()
	scale := 1.0
	if c.VRated > 0 {
		scale = v / c.VRated
	}
	dq := c.LeakI * scale * dt
	if dq > c.Q {
		dq = c.Q
	}
	before := c.Energy()
	c.Q -= dq
	return before - c.Energy()
}
