package scenario

import (
	"context"
	"fmt"

	"react/internal/runner"
	"react/internal/sim"
)

// RunOptions tunes one scenario run; the zero value uses the spec's
// defaults.
type RunOptions struct {
	// Seed overrides the spec's trace/event seed. 0 means "unset": the
	// spec's seed applies, which itself defaults to 1 — an explicit seed 0
	// is not expressible anywhere in the stack, and sweeps start at 1.
	Seed uint64
	// DT overrides the integration timestep.
	DT float64
	// RecordDT, when positive, records voltage/state series.
	RecordDT float64
	// Probe, when non-nil, observes every cell's device-level events
	// (sim.Probe); callbacks carry the cell's global buffer index. Probes
	// never change results, so the field is outside the fingerprint.
	Probe sim.Probe
}

// Validate checks the options' timing overrides: DT and RecordDT must be
// finite and non-negative (zero means "use the spec's default" / "don't
// record"). The check exists because NaN passes any `< 0` comparison and
// would otherwise reach sim.Run.
func (o RunOptions) Validate() error {
	if !isFiniteNonNegative(o.DT) {
		return fmt.Errorf("run options: dt must be finite and non-negative (zero keeps the spec's timestep)")
	}
	if !isFiniteNonNegative(o.RecordDT) {
		return fmt.Errorf("run options: record dt must be finite and non-negative (zero disables recording)")
	}
	return nil
}

// seed resolves the effective seed for a spec.
func (o RunOptions) seed(s *Spec) uint64 {
	switch {
	case o.Seed != 0:
		return o.Seed
	case s.Seed != 0:
		return s.Seed
	default:
		return 1
	}
}

// Run is a completed scenario: one sim.Result per buffer, index-parallel
// to Spec.Buffers.
type Run struct {
	Spec    *Spec
	Seed    uint64
	Results []sim.Result
}

// Result returns the run's result for a buffer display name.
func (r *Run) Result(buffer string) (sim.Result, bool) {
	for i, bs := range r.Spec.Buffers {
		if bs.DisplayName() == buffer {
			return r.Results[i], true
		}
	}
	return sim.Result{}, false
}

// Cell simulates buffer i of the spec — the unit the engine schedules —
// as a one-item RunBatch. Every call builds fresh state (trace, workload,
// buffer, device), so concurrent cells share nothing.
func (s *Spec) Cell(i int, opt RunOptions) (sim.Result, error) {
	res, err := RunBatch([]BatchItem{{Spec: s, Buffer: i}}, opt, nil)
	if err != nil {
		return sim.Result{}, err
	}
	return res[0], nil
}

// Run simulates every buffer of the spec over r's worker pool (nil r uses
// GOMAXPROCS workers) as RunCells batches them. Results are deterministic
// for any worker count.
func (s *Spec) Run(ctx context.Context, r *runner.Runner, opt RunOptions) (*Run, error) {
	items := make([]BatchItem, len(s.Buffers))
	opts := make([]RunOptions, len(s.Buffers))
	for i := range items {
		items[i], opts[i] = BatchItem{Spec: s, Buffer: i}, opt
	}
	results, err := RunCells(ctx, r, items, opts)
	if err != nil {
		return nil, err
	}
	return &Run{Spec: s, Seed: opt.seed(s), Results: results}, nil
}
