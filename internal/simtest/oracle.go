package simtest

import "react/internal/circuit"

// The differential oracle: charge moves written once against a Node
// interface, composed from the circuit kernels. Buffers call the kernels on
// their concrete nodes; each buffer's TestConcreteMatchesNodeHelpers
// replays simtest.TickDrive on the buffer and on a reference that moves
// every charge through these helpers instead, and demands equal bits after
// every tick.

// Node is any storage element that presents a two-terminal capacitive
// interface: an equivalent capacitance, a terminal voltage, and the ability
// to accept terminal charge. *circuit.Capacitor, *circuit.Chain and REACT's
// *core.Bank all satisfy it.
type Node interface {
	// Capacitance is the equivalent capacitance seen at the terminal.
	Capacitance() float64
	// Voltage is the terminal voltage.
	Voltage() float64
	// AddCharge moves dq through the terminal (negative to withdraw) and
	// returns the charge actually moved (withdrawals stop at empty).
	AddCharge(dq float64) float64
	// Energy is the total energy stored inside the element.
	Energy() float64
}

// EqualizeParallel connects the nodes in parallel and lets charge
// redistribute until all terminal voltages are equal, conserving total
// terminal charge. It returns the common final voltage and the energy
// dissipated in the interconnect (always ≥ 0 up to rounding).
func EqualizeParallel(nodes ...Node) (v, loss float64) {
	p := circuit.NewParallel()
	for _, n := range nodes {
		p.Add(n.Capacitance(), n.Voltage())
	}
	v, moves := p.Settle()
	if !moves {
		return v, 0
	}
	var before float64
	for _, n := range nodes {
		before += n.Energy()
	}
	after := 0.0
	for _, n := range nodes {
		n.AddCharge(circuit.EqualizeCharge(n.Capacitance(), n.Voltage(), v))
		after += n.Energy()
	}
	return v, circuit.GuardLoss(before - after)
}

// TransferOneWay conducts charge from src to dst through a diode with
// forward drop vDrop, stopping when V(src) = V(dst) + vDrop (or immediately
// if src is not above that level). It returns the charge moved and the
// energy dissipated in the diode and interconnect.
func TransferOneWay(src, dst Node, vDrop float64) (dq, loss float64) {
	dq, ok := circuit.TransferCharge(src.Capacitance(), src.Voltage(), dst.Capacitance(), dst.Voltage(), vDrop)
	if !ok {
		return 0, 0
	}
	before := src.Energy() + dst.Energy()
	src.AddCharge(-dq)
	dst.AddCharge(dq)
	return dq, circuit.GuardLoss(before - src.Energy() - dst.Energy())
}

// StoreEnergy delivers dE joules into the node through a diode with
// forward drop vDrop (see circuit.StoreCharge) and returns the charge
// delivered and the energy lost in the drop.
func StoreEnergy(n Node, dE, vDrop float64) (dq, loss float64) {
	if dE <= 0 {
		return 0, 0 // before any interface call
	}
	dq, loss = circuit.StoreCharge(n.Capacitance(), n.Voltage(), dE, vDrop)
	n.AddCharge(dq)
	return dq, loss
}

// DrawEnergy withdraws up to dE joules from the node (see
// circuit.DrawCharge) and returns the energy actually removed (less than
// dE only if the node empties first).
func DrawEnergy(n Node, dE float64) float64 {
	if dE <= 0 {
		return 0 // before any interface call
	}
	dq := circuit.DrawCharge(n.Capacitance(), n.Voltage(), dE)
	if dq == 0 {
		return 0
	}
	before := n.Energy()
	n.AddCharge(-dq)
	return circuit.Drawn(before, n.Energy())
}
