package experiments

import (
	"math"
	"testing"

	"react/internal/rng"
	"react/internal/scenario"
	"react/internal/trace"
)

// randomTrace builds a short, hostile power trace: bursts, nulls, spikes
// and ramps, designed to force frequent brownouts and controller activity.
func randomTrace(seed uint64) *trace.Trace {
	r := rng.New(seed)
	n := 60 + r.Intn(120)
	tr := &trace.Trace{Name: "fuzz", DT: 1, Power: make([]float64, n)}
	mode := 0
	for i := 0; i < n; i++ {
		if r.Float64() < 0.15 {
			mode = r.Intn(4)
		}
		switch mode {
		case 0: // null
			tr.Power[i] = 0
		case 1: // trickle
			tr.Power[i] = 0.05e-3 * r.Float64()
		case 2: // moderate
			tr.Power[i] = 2e-3 * r.Float64()
		default: // spike
			tr.Power[i] = 50e-3 * r.Float64()
		}
	}
	return tr
}

// TestFuzzAllCells drives every buffer × benchmark combination through
// hostile random traces and checks system-level invariants: no panics,
// energy conservation, sane accounting. This is the failure-injection net
// for the whole stack — brownouts land mid-boot, mid-burst, mid-TX and
// mid-reconfiguration.
func TestFuzzAllCells(t *testing.T) {
	maxSeed := uint64(6)
	if testing.Short() {
		maxSeed = 2 // the full six-seed sweep dominates the suite's runtime
	}
	for seed := uint64(1); seed <= maxSeed; seed++ {
		tr := randomTrace(seed)
		for _, buf := range BufferNames {
			for _, bench := range BenchmarkNames {
				r, err := runCell(tr, buf, bench, scenario.RunOptions{Seed: seed})
				if err != nil {
					t.Fatalf("seed %d %s/%s: %v", seed, buf, bench, err)
				}
				if e := r.EnergyBalanceError(); e > 1e-6 {
					t.Errorf("seed %d %s/%s: energy balance error %g", seed, buf, bench, e)
				}
				if r.OnTime > r.Duration+1e-9 {
					t.Errorf("seed %d %s/%s: on-time %g exceeds duration %g", seed, buf, bench, r.OnTime, r.Duration)
				}
				if r.Latency >= 0 && r.Latency > r.Duration {
					t.Errorf("seed %d %s/%s: latency %g beyond duration %g", seed, buf, bench, r.Latency, r.Duration)
				}
				if r.Latency < 0 && r.OnTime > 0 {
					t.Errorf("seed %d %s/%s: on-time without ever starting", seed, buf, bench)
				}
				for k, v := range r.Metrics {
					if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("seed %d %s/%s: metric %s = %g", seed, buf, bench, k, v)
					}
				}
				if r.Stored < -1e-12 {
					t.Errorf("seed %d %s/%s: negative residual energy %g", seed, buf, bench, r.Stored)
				}
			}
		}
	}
}

// TestFuzzAccountingConsistency checks the workload-specific accounting
// identities under hostile power: SC deadlines are either sampled, missed,
// or failed; PF packets are received, missed, or failed.
func TestFuzzAccountingConsistency(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		tr := randomTrace(seed * 31)
		r, err := runCell(tr, "REACT", "SC", scenario.RunOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		deadlines := math.Floor(r.Duration/5) + 1
		accounted := r.Metrics["samples"] + r.Metrics["missed"] + r.Metrics["failed"]
		// Accounting may lag by the deadlines still pending at shutdown.
		if accounted > deadlines+1 {
			t.Errorf("seed %d SC: %g accounted > %g deadlines", seed, accounted, deadlines)
		}

		p, err := runCell(tr, "REACT", "PF", scenario.RunOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		handled := p.Metrics["rx"] + p.Metrics["missed"]
		arrivals := r.Duration / 6 * 3 // generous Poisson bound (short traces use a 6 s mean)
		if handled > arrivals {
			t.Errorf("seed %d PF: handled %g packets from ~%g arrivals", seed, handled, arrivals)
		}
		if p.Metrics["tx"] > p.Metrics["rx"] {
			t.Errorf("seed %d PF: transmitted %g > received %g", seed, p.Metrics["tx"], p.Metrics["rx"])
		}
	}
}

// TestFuzzDeterminism verifies a full simulation is bit-reproducible.
func TestFuzzDeterminism(t *testing.T) {
	tr := randomTrace(9)
	a, err := runCell(tr, "REACT", "PF", scenario.RunOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runCell(randomTrace(9), "REACT", "PF", scenario.RunOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.OnTime != b.OnTime || a.Latency != b.Latency {
		t.Error("identical inputs must reproduce identical runs")
	}
	for k, v := range a.Metrics {
		if b.Metrics[k] != v {
			t.Errorf("metric %s differs: %g vs %g", k, v, b.Metrics[k])
		}
	}
}
