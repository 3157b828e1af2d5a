package capybara

import (
	"testing"

	"react/internal/buffer"
	"react/internal/simtest"
)

// nodeRef steps a Capybara array through the Node-level simtest helpers —
// StoreEnergy, DrawEnergy and EqualizeParallel over the active banks as a
// []simtest.Node — instead of the kernels the buffer calls on its concrete
// banks. Leakage, clipping and the mode thresholds are shared; every
// charge move goes through the helpers.
type nodeRef struct{ *Buffer }

func (r nodeRef) Harvest(dE float64) {
	if dE <= 0 {
		return
	}
	r.ledger.Harvested += dE
	var railC float64
	for _, c := range r.active() {
		railC += c.C
	}
	v := r.OutputVoltage()
	if v < r.cfg.VMax {
		room := 0.5*railC*r.cfg.VMax*r.cfg.VMax - 0.5*railC*v*v
		take := dE
		if take > room {
			take = room
		}
		for _, c := range r.active() {
			simtest.StoreEnergy(c, take*c.C/railC, 0)
		}
		dE -= take
	}
	for i := r.mode + 1; i < len(r.banks) && dE > 0; i++ {
		res := r.banks[i]
		room := 0.5*res.C*r.cfg.VMax*r.cfg.VMax - res.Energy()
		if room <= 0 {
			continue
		}
		take := dE
		if take > room {
			take = room
		}
		simtest.StoreEnergy(res, take, 0)
		dE -= take
	}
	r.ledger.Clipped += dE
}

func (r nodeRef) Draw(dE float64) float64 {
	var railC float64
	for _, c := range r.active() {
		railC += c.C
	}
	var got float64
	for _, c := range r.active() {
		got += simtest.DrawEnergy(c, dE*c.C/railC)
	}
	r.ledger.Consumed += got
	return got
}

func (r nodeRef) Tick(now, dt float64, deviceOn bool) {
	for _, c := range r.banks {
		r.ledger.Leaked += c.Leak(dt)
		r.ledger.Clipped += c.Clip()
	}
	if !deviceOn {
		r.poll = 1 / r.cfg.PollHz
		return
	}
	over := (r.cfg.BaseOverheadW + r.cfg.OverheadPerBankW*float64(r.mode+1)) * dt
	var drawn float64
	for _, c := range r.active() {
		drawn += simtest.DrawEnergy(c, over*c.C/r.Capacitance())
	}
	r.ledger.Overhead += drawn
	r.poll -= dt
	if r.poll > 0 {
		return
	}
	r.poll += 1 / r.cfg.PollHz
	v := r.OutputVoltage()
	switch {
	case v >= r.cfg.VHigh && r.mode < len(r.banks)-1:
		if r.banks[r.mode+1].Voltage() < v-0.25 {
			return
		}
		r.mode++
		_, loss := simtest.EqualizeParallel(r.railNodes()...)
		r.ledger.SwitchLoss += loss
	case v <= r.cfg.VLow && r.mode > 0:
		r.mode--
	}
}

func (r nodeRef) railNodes() []simtest.Node {
	ns := make([]simtest.Node, 0, r.mode+1)
	for _, c := range r.active() {
		ns = append(ns, c)
	}
	return ns
}

// TestConcreteMatchesNodeHelpers replays a seeded drive on a Capybara
// array and on nodeRef side by side, and requires bit-identical ledgers,
// stored energy, rail voltage, capacitance and mode after every tick. The
// drive climbs the whole mode ladder and back down to mode 0, so every
// reserve bank's connection (and its charge-sharing loss) is compared.
func TestConcreteMatchesNodeHelpers(t *testing.T) {
	got, want := New(DefaultConfig()), nodeRef{New(DefaultConfig())}
	d := simtest.TickDrive()
	top, returned := false, false
	ups, downs := 0, 0
	for i := 0; i < d.Len(); i++ {
		prev := got.Level()
		d.Step(got, i)
		d.Step(want, i)
		if err := simtest.BitDiff(got, want); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		switch lvl := got.Level(); {
		case lvl > prev:
			ups++
		case lvl < prev:
			downs++
		}
		top = top || got.Level() == got.MaxLevel()
		returned = returned || (top && got.Level() == 0)
	}
	if !top || !returned {
		t.Errorf("drive did not walk the ladder: reached top %v, returned to 0 %v", top, returned)
	}
	t.Logf("%d mode steps up, %d down, %.3g J switch loss", ups, downs, got.Ledger().SwitchLoss)
}

// BenchmarkTick replays simtest.TickDrive on the default Capybara array.
func BenchmarkTick(b *testing.B) {
	simtest.BenchTicks(b, simtest.TickDrive(), func() buffer.Buffer { return New(DefaultConfig()) })
}
