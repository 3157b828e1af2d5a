package morphy

import (
	"testing"

	"react/internal/buffer"
	"react/internal/simtest"
)

// nodeRef steps a Morphy array through the Node-level simtest helpers —
// EqualizeParallel, StoreEnergy and DrawEnergy over the chains as
// []simtest.Node — instead of the kernels the buffer calls on its concrete
// chains. Partition rebuilding, leakage and clipping are shared; every
// charge move goes through the helpers.
type nodeRef struct{ *Buffer }

func (r nodeRef) equalize() {
	nodes := make([]simtest.Node, len(r.chains))
	for i, ch := range r.chains {
		nodes[i] = ch
	}
	_, loss := simtest.EqualizeParallel(nodes...)
	r.ledger.SwitchLoss += loss
}

func (r nodeRef) Harvest(dE float64) {
	if dE <= 0 {
		return
	}
	r.ledger.Harvested += dE
	if eff := r.cfg.FabricEfficiency; eff > 0 && eff < 1 {
		r.ledger.SwitchLoss += dE * (1 - eff)
		dE *= eff
	}
	var total float64
	for _, ch := range r.chains {
		total += ch.Capacitance()
	}
	if total == 0 {
		r.ledger.Clipped += dE
		return
	}
	for _, ch := range r.chains {
		simtest.StoreEnergy(ch, dE*ch.Capacitance()/total, 0)
	}
	r.clip()
}

func (r nodeRef) Draw(dE float64) float64 {
	var total float64
	for _, ch := range r.chains {
		total += ch.Capacitance()
	}
	if total == 0 {
		return 0
	}
	remaining := dE
	for iter := 0; iter < 4 && remaining > 1e-18; iter++ {
		var got float64
		for _, ch := range r.chains {
			got += simtest.DrawEnergy(ch, remaining*ch.Capacitance()/total)
		}
		remaining -= got
		if got == 0 {
			break
		}
	}
	consumed := dE - remaining
	r.ledger.Consumed += consumed
	return consumed
}

func (r nodeRef) Tick(now, dt float64, deviceOn bool) {
	r.equalize()
	for _, c := range r.caps {
		r.ledger.Leaked += c.Leak(dt)
	}
	r.clip()
	r.poll -= dt
	if r.poll > 0 {
		return
	}
	r.poll += 1 / r.cfg.PollHz
	if r.holdoff > 0 {
		r.holdoff--
		return
	}
	v := r.OutputVoltage()
	switch {
	case v >= r.cfg.VHigh && r.idx < len(r.cfg.Partitions)-1:
		r.idx++
	case v <= r.cfg.VLow && r.idx > 0:
		r.idx--
	default:
		return
	}
	r.rebuild()
	r.equalize()
	r.holdoff = 10
}

// TestConcreteMatchesNodeHelpers replays a seeded drive on a Morphy array
// and on nodeRef side by side, and requires bit-identical ledgers, stored
// energy, rail voltage, capacitance and level after every tick. The drive
// walks the whole partition ladder up and back down, so every
// reconfiguration's equalization is compared — the goldens never reach
// most of the ladder.
func TestConcreteMatchesNodeHelpers(t *testing.T) {
	got, want := New(DefaultConfig()), nodeRef{New(DefaultConfig())}
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
}

// BenchmarkTick replays simtest.TickDrive on the default Morphy array.
func BenchmarkTick(b *testing.B) {
	simtest.BenchTicks(b, simtest.TickDrive(), func() buffer.Buffer { return New(DefaultConfig()) })
}
