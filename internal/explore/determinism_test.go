package explore

import (
	"context"
	"reflect"
	"testing"

	"react/internal/scenario"
	"react/internal/sim"
)

// TestExploreDeterminism is the exploration determinism suite: the same
// space at fixed seeds produces a bit-identical result — points, metrics,
// bests and frontiers — whether the local evaluator runs one, two or
// eight workers, and across back-to-back runs.
func TestExploreDeterminism(t *testing.T) {
	sp := &Space{
		Spec: &scenario.Spec{
			Name:     "explore-det",
			Trace:    scenario.TraceSpec{Gen: "steady", Mean: 0.008, Duration: 30},
			Workload: scenario.WorkloadSpec{Bench: "DE"},
			Buffers:  scenario.Presets("REACT"),
		},
		Static:  &StaticAxis{From: 500e-6, To: 5e-3, Points: 3},
		Presets: []string{"770 µF"},
		Seeds:   []uint64{1, 2},
		Pareto:  []MetricPair{{X: MetricC, Y: MetricLatency}, {X: MetricDead, Y: MetricEfficiency}},
	}
	ref, err := Run(context.Background(), sp, Local(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := Run(context.Background(), sp, Local(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: exploration result diverged from the single-worker reference", workers)
		}
	}

	// Bisection too: the probe sequence is data-dependent but the data is
	// deterministic, so the evaluated set and the best point are stable.
	sp.Strategy = StrategyBisect
	sp.Presets = nil
	sp.Pareto = nil
	min := 0.5
	sp.Target = &Target{Metric: MetricDuty, Min: &min}
	ref, err = Run(context.Background(), sp, Local(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := Run(context.Background(), sp, Local(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: bisection result diverged across worker counts", workers)
		}
	}
}

// cellOracle evaluates every cell alone (Spec.Cell): the per-cell
// reference Local's lockstep batching must reproduce bit for bit.
func cellOracle(_ context.Context, cells []Cell) ([]sim.Result, error) {
	out := make([]sim.Result, len(cells))
	for i, c := range cells {
		var err error
		if out[i], err = c.Spec.Cell(0, c.Opt); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestExploreLocalMatchesCellOracle pins Local's batching against the
// per-cell oracle on a space crossing several seeds and timesteps, for
// both strategies and at 1, 2 and 8 workers — where the planner chunks
// each key differently. The trace is seeded (a clipped RF cart), so a
// batch that mixed seeds would show; on it, latency first reaches 5 s
// mid-lattice, so each bisection searches the lattice interior.
func TestExploreLocalMatchesCellOracle(t *testing.T) {
	space := func(strategy string) *Space {
		sp := mixedSpace(strategy)
		sp.Spec.Trace = scenario.TraceSpec{Gen: "rf-cart", Duration: 30}
		if sp.Target != nil {
			sp.Target = &Target{Metric: MetricLatency, Min: f64(5)}
		}
		return sp
	}
	for _, strategy := range []string{StrategyGrid, StrategyBisect} {
		ref, err := Run(context.Background(), space(strategy), cellOracle)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			local := Local(workers)
			shared := 0 // cells that ride a batch with others
			ev := func(ctx context.Context, cells []Cell) ([]sim.Result, error) {
				items := make([]scenario.BatchItem, len(cells))
				opts := make([]scenario.RunOptions, len(cells))
				for i, c := range cells {
					items[i], opts[i] = scenario.BatchItem{Spec: c.Spec}, c.Opt
				}
				for _, b := range scenario.PlanBatches(items, opts, 1) {
					if len(b.Items) > 1 {
						shared += len(b.Items)
					}
				}
				return local(ctx, cells)
			}
			got, err := Run(context.Background(), space(strategy), ev)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s, workers=%d: Local diverged from the per-cell oracle", strategy, workers)
			}
			// Bisection probes one point (one cell per seed) at a time; the
			// grid hands Local whole seed-by-dt keys.
			if strategy == StrategyGrid && shared == 0 {
				t.Errorf("%s, workers=%d: no cells shared a trace pass; the oracle check is vacuous", strategy, workers)
			}
		}
	}
}
