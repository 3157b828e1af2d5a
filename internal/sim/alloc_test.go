package sim

import (
	"testing"

	"react/internal/harvest"
)

// TestNilProbeAllocsIndependentOfLength pins the nil-probe hot path as
// allocation-free per tick: the allocation counts of Run and of a 2-cell
// RunBatch are set-up costs only, the same at 100 s, 200 s and 400 s of a
// steady trace (the system is on throughout, so every tick is stepped).
func TestNilProbeAllocsIndependentOfLength(t *testing.T) {
	allocs := func(dur int, batch bool) float64 {
		// AllocsPerRun calls f twice (warm-up, then the measured run);
		// configs are stateful, so each call gets fresh ones built here,
		// outside the measurement.
		var runs [][]Config
		for i := 0; i < 2; i++ {
			a, b := testConfig(10e-3, dur, 1e-3), testConfig(10e-3, dur, 1e-3)
			b.Frontend = harvest.NewFrontend(a.Frontend.Trace, nil) // a batch shares one trace
			runs = append(runs, []Config{a, b})
		}
		call := 0
		return testing.AllocsPerRun(1, func() {
			cfgs := runs[call]
			call++
			var err error
			if batch {
				_, err = RunBatch(cfgs, nil)
			} else {
				_, err = Run(cfgs[0])
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, batch := range []bool{false, true} {
		base := allocs(100, batch)
		for _, dur := range []int{200, 400} {
			if got := allocs(dur, batch); got != base {
				t.Errorf("batch=%v: %v allocs at %d s, %v at 100 s: the per-tick path allocates", batch, got, dur, base)
			}
		}
		t.Logf("batch=%v: %v allocs per run at 100 s", batch, base)
	}
}
