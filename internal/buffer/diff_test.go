package buffer_test

import (
	"testing"

	"react/internal/buffer"
	"react/internal/scenario"
	"react/internal/simtest"
)

// nodeRef steps a static buffer through the Node-level simtest helpers —
// StoreEnergy and DrawEnergy on its capacitor — instead of the capacitor's
// own Store and Draw. Clipping and leakage are shared.
type nodeRef struct{ *buffer.Static }

func (r nodeRef) Harvest(dE float64) {
	if dE <= 0 {
		return
	}
	r.Ledger().Harvested += dE
	simtest.StoreEnergy(r.Cap(), dE, 0)
	r.Ledger().Clipped += r.Cap().Clip()
}

func (r nodeRef) Draw(dE float64) float64 {
	got := simtest.DrawEnergy(r.Cap(), dE)
	r.Ledger().Consumed += got
	return got
}

// TestConcreteMatchesNodeHelpers replays a seeded drive on every
// single-capacitor preset (the static buffers and Dewdrop, whose charge
// moves are its embedded Static's) and on nodeRef side by side, and
// requires bit-identical ledgers, stored energy, rail voltage, capacitance
// and, for Dewdrop, level after every tick.
func TestConcreteMatchesNodeHelpers(t *testing.T) {
	covered := 0
	for _, name := range scenario.PresetBuffers {
		got, err := scenario.NewPresetBuffer(name)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := scenario.NewPresetBuffer(name)
		var ref nodeRef
		switch w := want.(type) {
		case *buffer.Static:
			ref = nodeRef{w}
		case *buffer.Dewdrop:
			ref = nodeRef{&w.Static}
		default:
			continue
		}
		covered++
		t.Run(name, func(t *testing.T) {
			d := simtest.TickDrive()
			for i := 0; i < d.Len(); i++ {
				d.Step(got, i)
				d.Step(ref, i)
				if err := simtest.BitDiff(got, want); err != nil {
					t.Fatalf("tick %d: %v", i, err)
				}
			}
			if got.Ledger().Clipped == 0 || got.Ledger().Consumed == 0 {
				t.Errorf("drive never clipped or drew: %+v", *got.Ledger())
			}
		})
	}
	if covered != 4 {
		t.Errorf("compared %d single-capacitor presets, want 4 (770 µF, 10 mF, 17 mF, Dewdrop)", covered)
	}
}
