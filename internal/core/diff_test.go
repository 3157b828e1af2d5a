package core

import (
	"fmt"
	"math"
	"testing"

	"react/internal/buffer"
	"react/internal/simtest"
)

// nodeRef steps a REACT buffer through the Node-level simtest helpers —
// StoreEnergy, DrawEnergy and TransferOneWay over the rail as a
// []simtest.Node — instead of the kernels the buffer calls on its concrete
// nodes. The controller's bookkeeping (stepUp, leakage, clipping) is
// shared; every charge move goes through the helpers.
type nodeRef struct{ *Buffer }

func (r nodeRef) connected() []simtest.Node {
	nodes := []simtest.Node{&r.llb}
	for _, bank := range r.banks {
		if bank.State != Disconnected {
			nodes = append(nodes, bank)
		}
	}
	return nodes
}

func (r nodeRef) Harvest(dE float64) {
	if dE <= 0 {
		return
	}
	r.ledger.Harvested += dE
	nodes := r.connected()
	minV := math.Inf(1)
	for _, n := range nodes {
		if v := n.Voltage(); v < minV {
			minV = v
		}
	}
	const tie = 1e-3
	var groupC float64
	for _, n := range nodes {
		if n.Voltage() <= minV+tie {
			groupC += n.Capacitance()
		}
	}
	if groupC == 0 {
		r.ledger.Clipped += dE
		return
	}
	for _, n := range nodes {
		if n.Voltage() > minV+tie {
			continue
		}
		_, loss := simtest.StoreEnergy(n, dE*n.Capacitance()/groupC, r.cfg.DiodeDrop)
		r.ledger.SwitchLoss += loss
	}
	r.clip()
}

func (r nodeRef) Draw(dE float64) float64 {
	got := simtest.DrawEnergy(&r.llb, dE)
	if got < dE {
		r.relax()
		got += simtest.DrawEnergy(&r.llb, dE-got)
	}
	r.ledger.Consumed += got
	return got
}

func (r nodeRef) relax() {
	for iter := 0; iter < 4*len(r.banks)+4; iter++ {
		var donor *Bank
		best := r.llb.Voltage() + r.cfg.DiodeDrop + 1e-9
		for _, bank := range r.banks {
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
		_, loss := simtest.TransferOneWay(donor, &r.llb, r.cfg.DiodeDrop)
		r.ledger.SwitchLoss += loss
		r.ledger.Clipped += r.llb.Clip()
	}
}

func (r nodeRef) Tick(now, dt float64, deviceOn bool) {
	r.relax()
	r.ledger.Leaked += r.llb.Leak(dt)
	for _, bank := range r.banks {
		r.ledger.Leaked += bank.Leak(dt)
	}
	r.clip()
	if !deviceOn {
		r.poll = 1 / r.cfg.PollHz
		return
	}
	connected := 0
	for _, bank := range r.banks {
		if bank.State != Disconnected {
			connected++
		}
	}
	over := (r.cfg.BaseOverheadW + r.cfg.OverheadPerBankW*float64(connected)) * dt
	r.ledger.Overhead += simtest.DrawEnergy(&r.llb, over)
	r.poll -= dt
	if r.poll <= 0 {
		r.poll += 1 / r.cfg.PollHz
		switch v := r.llb.Voltage(); {
		case v >= r.cfg.VHigh:
			r.stepUp()
		case v <= r.cfg.VLow:
			r.stepDown()
		}
	}
}

func (r nodeRef) stepDown() {
	if r.step <= 0 {
		return
	}
	r.step--
	bank := r.banks[r.step/2]
	if r.step%2 == 0 {
		bank.Reconfigure(Disconnected)
	} else {
		bank.Reconfigure(Series)
	}
	r.relax()
}

// TestConcreteMatchesNodeHelpers replays a seeded drive — harvest surges,
// heavy draws, the device switching on and off — on a REACT buffer and on
// nodeRef side by side, and requires bit-identical ledgers, stored energy,
// rail voltage, capacitance and level after every tick. It covers diode
// drops and bank counts the goldens never use, and checks that the drive
// walks the controller's whole ladder up and back down.
func TestConcreteMatchesNodeHelpers(t *testing.T) {
	for _, drop := range []float64{0, 0.3} {
		for _, banks := range []int{3, 5} {
			t.Run(fmt.Sprintf("drop=%g/banks=%d", drop, banks), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.DiodeDrop = drop
				cfg.Banks = cfg.Banks[:banks]
				got, want := New(cfg), nodeRef{New(cfg)}
				d := simtest.TickDrive()
				top, returned := false, false
				for i := 0; i < d.Len(); i++ {
					d.Step(got, i)
					d.Step(want, i)
					if err := simtest.BitDiff(got, want); err != nil {
						t.Fatalf("tick %d: %v", i, err)
					}
					top = top || got.Level() == got.MaxLevel()
					returned = returned || (top && got.Level() == 0)
				}
				if !top || !returned {
					t.Errorf("drive did not walk the ladder: reached top %v, returned to 0 %v", top, returned)
				}
			})
		}
	}
}

// BenchmarkTick replays simtest.TickDrive on the default REACT buffer.
func BenchmarkTick(b *testing.B) {
	simtest.BenchTicks(b, simtest.TickDrive(), func() buffer.Buffer { return New(DefaultConfig()) })
}
