// Package experiments renders every table and figure in the paper's
// evaluation (§5) plus the §2 background analysis. The cmd/ tools and the
// top-level benchmarks are thin wrappers over this package; see DESIGN.md
// for the experiment index.
//
// Every number here comes from a registered scenario (internal/scenario):
// the evaluation grid is the paper-<bench>-<trace> specs, Figure 6 is
// paper-sc-rf-mobile, and the §2.1 and §5.1 analyses are
// background-pedestrian, background-night and react-overhead. This
// package runs them and keeps only the renderers.
package experiments

import (
	"context"
	"fmt"
	"slices"

	"react/internal/runner"
	"react/internal/scenario"
	"react/internal/sim"
	"react/internal/trace"
)

// BufferNames lists the five evaluated buffers in the paper's column order.
var BufferNames = scenario.PaperBuffers

// BenchmarkNames lists the four benchmarks in presentation order.
var BenchmarkNames = scenario.PaperBenchmarks

// Grid is the dense evaluation-grid result store (benchmark × trace ×
// buffer), shared with every other grid-shaped driver via internal/runner.
type Grid = runner.Grid

// RunGrid executes the complete evaluation (4 benchmarks × 5 traces × 5
// buffers) over the default worker pool and returns the populated grid.
func RunGrid(opt scenario.RunOptions) (*Grid, error) {
	return RunGridOn(context.Background(), nil, opt)
}

// RunGridOn is RunGrid with an explicit context and runner, for callers
// that need cancellation, a bounded pool, or progress reporting. The grid
// cells are the registered paper scenarios: each (benchmark × trace) pair
// resolves through the scenario registry, so the paper's evaluation and
// the extended catalogue run through one definition of each cell. Each
// (benchmark × trace) group runs its five buffers in lockstep over a
// single pass of the shared trace (scenario.RunBatch).
func RunGridOn(ctx context.Context, r *runner.Runner, opt scenario.RunOptions) (*Grid, error) {
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	traces := trace.Evaluation(seed)
	return runner.RunGridBatched(ctx, r, BenchmarkNames, traces, BufferNames,
		func(ctx context.Context, bench string, tr *trace.Trace, buffers []string) ([]sim.Result, error) {
			sp, err := lookup(scenario.PaperName(bench, tr.Name))
			if err != nil {
				return nil, err
			}
			// The grid shares each materialized trace across its 20 cells;
			// feed it to the spec (Lookup returns a clone) instead of
			// re-running the synthetic generator once per cell.
			sp.Trace = scenario.TraceSpec{Loaded: tr}
			if err := selectBuffers(sp, buffers); err != nil {
				return nil, err
			}
			items := make([]scenario.BatchItem, len(sp.Buffers))
			for i := range items {
				items[i] = scenario.BatchItem{Spec: sp, Buffer: i}
			}
			return scenario.RunBatch(items, opt, nil)
		})
}

// lookup returns the named registered scenario.
func lookup(name string) (*scenario.Spec, error) {
	sp, ok := scenario.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("scenario %q not registered", name)
	}
	return sp, nil
}

// selectBuffers narrows sp to the named buffers, in the order given.
func selectBuffers(sp *scenario.Spec, names []string) error {
	picked := make([]scenario.BufferSpec, len(names))
	for i, name := range names {
		j := slices.IndexFunc(sp.Buffers, func(bs scenario.BufferSpec) bool { return bs.DisplayName() == name })
		if j < 0 {
			return fmt.Errorf("scenario %s: no buffer %q", sp.Name, name)
		}
		picked[i] = sp.Buffers[j]
	}
	sp.Buffers = picked
	return nil
}

// Perf returns the figure of merit for one result: completed blocks (DE),
// successful samples (SC), successful transmissions (RT), and forwarded
// traffic rx+tx (PF).
func Perf(bench string, r sim.Result) float64 {
	switch bench {
	case "DE":
		return r.Metrics["blocks"]
	case "SC":
		return r.Metrics["samples"]
	case "RT":
		return r.Metrics["tx"]
	case "PF":
		return r.Metrics["rx"] + r.Metrics["tx"]
	}
	return 0
}
