package explore

import (
	"context"

	"react/internal/runner"
	"react/internal/sim"
)

// Local returns an in-process Evaluator: every cell simulates once over
// the experiment engine's bounded worker pool (workers 0 = GOMAXPROCS),
// in cell order. It needs no memo: Space.Resolve rejects duplicate axis
// values, so no two cells of a plan share a content address, and Plan.Run
// never asks for a point twice. Results are deterministic for any worker
// count.
func Local(workers int) Evaluator {
	r := &runner.Runner{Workers: workers}
	return func(ctx context.Context, cells []Cell) ([]sim.Result, error) {
		return runner.Sweep(ctx, r, cells, func(_ context.Context, c Cell) (sim.Result, error) {
			return c.Spec.Cell(0, c.Opt)
		})
	}
}
