package scenario

import (
	"context"
	"fmt"

	"react/internal/harvest"
	"react/internal/mcu"
	"react/internal/runner"
	"react/internal/sim"
	"react/internal/trace"
)

// BatchItem names one cell — buffer index Buffer of Spec — for lockstep
// execution alongside other cells that share its batch key.
type BatchItem struct {
	Spec   *Spec
	Buffer int
}

// batchKey is what cells must share to ride one lockstep trace pass: trace
// spec, effective seed and effective timestep.
type batchKey struct {
	trace TraceSpec
	seed  uint64
	dt    float64
}

func keyOf(s *Spec, opt RunOptions) batchKey {
	return batchKey{trace: s.Trace, seed: opt.seed(s), dt: s.ResolveDT(opt.DT)}
}

// Batch is one planned lockstep pass: indices into the planned items, in
// input order, and options carrying the key's resolved seed and timestep,
// which apply to every member whatever its spec's defaults (RecordDT and
// Probe are the first member's).
type Batch struct {
	Items []int
	Opt   RunOptions
}

// PlanBatches is the batching policy of every cell scheduler: cells (opts
// index-parallel) group by batch key, keys in order of first appearance
// and cells in input order, and each key splits into at most slots
// contiguous chunks of near-equal size. A pool with slots to spare gets a
// batch per slot; cells that would queue behind a busy one share a trace
// pass instead. slots 1 gives one batch per key.
func PlanBatches(items []BatchItem, opts []RunOptions, slots int) []Batch {
	var keys []batchKey
	groups := map[batchKey][]int{}
	for i, it := range items {
		k := keyOf(it.Spec, opts[i])
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], i)
	}
	var out []Batch
	for _, k := range keys {
		idx := groups[k]
		opt := opts[idx[0]]
		opt.Seed, opt.DT = k.seed, k.dt
		parts := max(1, min(slots, len(idx)))
		for p, lo := 0, 0; p < parts; p++ {
			hi := lo + (len(idx)-lo)/(parts-p)
			out = append(out, Batch{Items: idx[lo:hi], Opt: opt})
			lo = hi
		}
	}
	return out
}

// RunCells simulates cells over r's worker pool (nil r: GOMAXPROCS) as the
// batches PlanBatches makes for its slots; opts and results are
// index-parallel to items. Batching never changes results, so they are
// deterministic for any worker count.
func RunCells(ctx context.Context, r *runner.Runner, items []BatchItem, opts []RunOptions) ([]sim.Result, error) {
	for i, it := range items {
		// Planning resolves the timestep, masking an invalid override.
		if err := opts[i].Validate(); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", it.Spec.Name, err)
		}
	}
	batches := PlanBatches(items, opts, r.Slots())
	results := make([]sim.Result, len(items))
	err := r.Do(ctx, len(batches), func(_ context.Context, bi int) error {
		b := batches[bi]
		members := make([]BatchItem, len(b.Items))
		for j, i := range b.Items {
			members[j] = items[i]
		}
		res, err := RunBatch(members, b.Opt, nil)
		if err != nil {
			return err
		}
		for j, i := range b.Items {
			results[i] = res[j]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// RunBatch materializes and simulates the given cells in lockstep over one
// shared trace pass (sim.RunBatch): the trace is built once and sampled
// once per tick for the whole batch. All items must share one batch key,
// as every batch PlanBatches makes does. Everything else (converter,
// device, workload, buffer, tail cap) is per-cell and may differ across
// specs.
//
// Results are index-parallel to items and bit-identical to running every
// cell alone (Cell is the one-item batch): the trace content is
// deterministic in the seed, and the lockstep executor preserves the
// reference loop's arithmetic exactly. st, when non-nil, accumulates the
// executor's tick accounting.
func RunBatch(items []BatchItem, opt RunOptions, st *sim.Stats) ([]sim.Result, error) {
	if len(items) == 0 {
		return nil, nil
	}
	for _, it := range items {
		if it.Spec == nil {
			return nil, fmt.Errorf("scenario batch: nil spec")
		}
	}
	s0 := items[0].Spec
	if err := opt.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s0.Name, err)
	}
	k0 := keyOf(s0, opt)
	for _, it := range items {
		s := it.Spec
		if it.Buffer < 0 || it.Buffer >= len(s.Buffers) {
			return nil, fmt.Errorf("scenario %s: buffer index %d out of range", s.Name, it.Buffer)
		}
		k := keyOf(s, opt)
		if k.seed != k0.seed {
			return nil, fmt.Errorf("scenario %s: batch mixes seeds %d and %d", s.Name, k0.seed, k.seed)
		}
		//lint:reactlint-ignore dtarith the batch key is exact identity: nearly-equal timesteps must not share a lockstep pass
		if k.dt != k0.dt {
			return nil, fmt.Errorf("scenario %s: batch mixes timesteps %g and %g", s.Name, k0.dt, k.dt)
		}
		if k.trace != k0.trace {
			return nil, fmt.Errorf("scenario %s: batch mixes trace specs (with scenario %s)", s.Name, s0.Name)
		}
	}

	tr, err := s0.Trace.Build(k0.seed)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s0.Name, err)
	}
	cfgs := make([]sim.Config, len(items))
	for i := range items {
		if cfgs[i], err = buildCellConfig(items[i], tr, k0.seed, k0.dt, opt.RecordDT, opt.Probe); err != nil {
			return nil, err
		}
	}
	res, err := sim.RunBatch(cfgs, st)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s0.Name, err)
	}
	return res, nil
}

// buildCellConfig materializes one cell of a batch — converter, device
// profile, workload, buffer, and checkpoint scheme — wired to the shared
// trace. Errors carry the scenario/buffer context.
func buildCellConfig(it BatchItem, tr *trace.Trace, seed uint64, dt, recordDT float64, probe sim.Probe) (sim.Config, error) {
	s := it.Spec
	fail := func(err error) (sim.Config, error) {
		return sim.Config{}, fmt.Errorf("scenario %s: %s: %w", s.Name, s.Buffers[it.Buffer].DisplayName(), err)
	}
	conv, err := harvest.ByName(s.Converter)
	if err != nil {
		return fail(err)
	}
	prof, err := s.Device.Build()
	if err != nil {
		return fail(err)
	}
	wl, err := s.Workload.Build(tr, seed, prof)
	if err != nil {
		return fail(err)
	}
	buf, err := s.Buffers[it.Buffer].Build()
	if err != nil {
		return fail(err)
	}
	dev := mcu.NewDevice(prof, wl)
	if dev.Scheme, err = s.Device.BuildScheme(); err != nil {
		return fail(err)
	}
	return sim.Config{
		DT:        dt,
		Frontend:  harvest.NewFrontend(tr, conv),
		Buffer:    buf,
		Device:    dev,
		TailCap:   s.TailCap,
		RecordDT:  recordDT,
		Probe:     probe,
		ProbeCell: it.Buffer,
	}, nil
}
