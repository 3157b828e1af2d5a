package explore

import (
	"context"

	"react/internal/runner"
	"react/internal/scenario"
	"react/internal/sim"
)

// Local returns an in-process Evaluator: every cell simulates once over
// the experiment engine's worker pool (workers 0 = GOMAXPROCS), batched
// into lockstep passes by scenario.RunCells. It needs no memo:
// Space.Resolve rejects duplicate axis values, so no two cells of a plan
// share a content address, and Plan.Run never asks for a point twice.
// Results are deterministic for any worker count.
func Local(workers int) Evaluator {
	r := &runner.Runner{Workers: workers}
	return func(ctx context.Context, cells []Cell) ([]sim.Result, error) {
		items := make([]scenario.BatchItem, len(cells))
		opts := make([]scenario.RunOptions, len(cells))
		for i, c := range cells {
			items[i], opts[i] = scenario.BatchItem{Spec: c.Spec}, c.Opt
		}
		return scenario.RunCells(ctx, r, items, opts)
	}
}
