package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"react/internal/experiments"
	"react/internal/obs"
	"react/internal/runner"
	"react/internal/scenario"
	"react/internal/sim"
	"react/internal/trace"
)

// gridWorkers is the runner pool for paper-grid-rf: one per core of the
// 2-core reference machine.
const gridWorkers = 2

// rfTraces synthesizes the paper grid's RF columns (Table 3's first three
// traces) for a seed.
func rfTraces(seed uint64) []*trace.Trace {
	return []*trace.Trace{trace.RFCart(seed), trace.RFObstructed(seed), trace.RFMobile(seed)}
}

// gridSetup is what one grid pass needs: the traces and the resolved paper
// scenario of every benchmark × trace group, plus the goldens the passes
// are checked against.
type gridSetup struct {
	traces  []*trace.Trace
	specs   map[string]*scenario.Spec
	goldens map[string]*goldenFile
}

// setupGrid is the program's set-up of a grid run, the part setup_s
// times; the goldens are the benchmark's own check data and are loaded
// afterwards by loadGoldens.
func setupGrid(e *env, parent *obs.ActiveSpan) (*gridSetup, error) {
	gs := &gridSetup{specs: map[string]*scenario.Spec{}}
	sp := e.tr.start(parent, "trace.synth")
	gs.traces = rfTraces(e.seed)
	sp.End(nil)
	for _, bench := range experiments.BenchmarkNames {
		for _, tr := range gs.traces {
			name := scenario.PaperName(bench, tr.Name)
			sp, ok := scenario.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("paper scenario %q not registered", name)
			}
			// Share the materialized trace across the group's cells, as
			// experiments.RunGridOn does.
			sp.Trace = scenario.TraceSpec{Loaded: tr}
			gs.specs[name] = sp
		}
	}
	return gs, nil
}

func (gs *gridSetup) loadGoldens(dir string) error {
	gs.goldens = map[string]*goldenFile{}
	for name := range gs.specs {
		g, err := readGolden(dir, name)
		if err != nil {
			return err
		}
		gs.goldens[name] = g
	}
	return nil
}

// gridPass is one timed pass over the 60 cells.
type gridPass struct {
	grid      *runner.Grid
	wall      float64
	groups    []float64 // per-group RunBatch duration
	rows      []float64 // per-benchmark span: its first group's start to its last group's end
	groupEnds []float64 // per-group end time from pass start
	stats     sim.Stats
	simS      float64
	traced    bool
}

func runGridPass(ctx context.Context, e *env, gs *gridSetup, parent *obs.ActiveSpan) (*gridPass, error) {
	p := &gridPass{traced: e.tr.enabled()}
	nt := len(gs.traces)
	groupStats := make([]sim.Stats, len(experiments.BenchmarkNames)*nt)
	groupDur := make([]float64, len(groupStats))
	groupStart := make([]float64, len(groupStats))
	groupEnd := make([]float64, len(groupStats))
	// groupIndex is the flat benchmark-major group index RunGridBatched
	// uses.
	groupIndex := map[string]int{}
	for b, bench := range experiments.BenchmarkNames {
		for t, tr := range gs.traces {
			groupIndex[scenario.PaperName(bench, tr.Name)] = b*nt + t
		}
	}
	id := e.tr.start(parent, "runner.RunGridBatched")
	began := time.Now()
	g, err := runner.RunGridBatched(ctx, &runner.Runner{Workers: gridWorkers}, experiments.BenchmarkNames, gs.traces, experiments.BufferNames,
		func(ctx context.Context, bench string, tr *trace.Trace, buffers []string) ([]sim.Result, error) {
			name := scenario.PaperName(bench, tr.Name)
			sp := gs.specs[name]
			items := make([]scenario.BatchItem, len(buffers))
			for i, name := range buffers {
				idx := -1
				for j, bs := range sp.Buffers {
					if bs.DisplayName() == name {
						idx = j
						break
					}
				}
				if idx < 0 {
					return nil, fmt.Errorf("scenario %s: no buffer %q", sp.Name, name)
				}
				items[i] = scenario.BatchItem{Spec: sp, Buffer: idx}
			}
			k := groupIndex[name]
			sid := e.tr.start(id, "scenario.RunBatch")
			t0 := time.Now()
			groupStart[k] = t0.Sub(began).Seconds()
			res, err := scenario.RunBatch(items, scenario.RunOptions{Seed: e.seed}, &groupStats[k])
			groupDur[k] = time.Since(t0).Seconds()
			groupEnd[k] = time.Since(began).Seconds()
			sid.End(nil)
			return res, err
		})
	p.wall = time.Since(began).Seconds()
	id.End(nil)
	if err != nil {
		return nil, err
	}
	p.grid = g
	p.groups = groupDur
	p.groupEnds = groupEnd
	for b := range experiments.BenchmarkNames {
		first, last := p.wall, 0.0
		for t := 0; t < nt; t++ {
			first = min(first, groupStart[b*nt+t])
			last = max(last, groupEnd[b*nt+t])
		}
		p.rows = append(p.rows, last-first)
	}
	for _, st := range groupStats {
		p.stats.TicksSimulated += st.TicksSimulated
		p.stats.TicksFastForwarded += st.TicksFastForwarded
		p.stats.TracePasses += st.TracePasses
	}
	g.Each(func(_ string, _ *trace.Trace, _ string, r sim.Result) { p.simS += r.Duration })
	return p, nil
}

// checkGridPass verifies a pass: energy balance everywhere, the goldens at
// the golden seed, bit-identity with the first pass, and the workload's
// shape (no fast-forward, one trace pass per group).
func checkGridPass(e *env, r *report, gs *gridSetup, p, first *gridPass) {
	groups := len(experiments.BenchmarkNames) * len(gs.traces)
	if p.stats.TicksFastForwarded != 0 {
		r.fail("paper-grid-rf: %d fast-forwarded ticks, want 0 (traces are strictly positive)", p.stats.TicksFastForwarded)
	}
	if p.stats.TracePasses != uint64(groups) {
		r.fail("paper-grid-rf: %d trace passes, want %d", p.stats.TracePasses, groups)
	}
	p.grid.Each(func(bench string, tr *trace.Trace, buf string, res sim.Result) {
		name := scenario.PaperName(bench, tr.Name)
		label := name + "/" + buf
		var err error
		if bal := res.EnergyBalanceError(); !(bal <= e.man.BalanceTolerance) {
			err = fmt.Errorf("energy balance error %g", bal)
		}
		if err == nil && e.seed == e.man.GoldenSeed {
			if w, ok := gs.goldens[name].Buffers[buf]; !ok {
				err = fmt.Errorf("no golden cell")
			} else if d := diffGolden(res, w, e.man.GoldenTolerance); d != nil {
				err = fmt.Errorf("golden drift: %v", d)
			}
		}
		if err == nil && first != nil && simBits(res) != simBits(first.grid.At(bench, tr.Name, buf)) {
			err = fmt.Errorf("differs from the first pass")
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", label, err)
		}
		r.op(err)
	})
}

// gridHit times the one query a finished grid answers without simulating:
// rendering the paper's Tables 2, 4 and 5 and Figure 7 from it, which
// cmd/tables does once per grid. It returns milliseconds.
func gridHit(g *runner.Grid) (float64, error) {
	t0 := time.Now()
	out := experiments.Table2(g).String() + experiments.Table4(g).String() +
		experiments.Table5(g).String() + experiments.ComputeFigure7(g).Table().String()
	ms := time.Since(t0).Seconds() * 1e3
	if out == "" {
		return 0, fmt.Errorf("empty tables")
	}
	return ms, nil
}

func runGrid(e *env, r *report) error {
	ctx := context.Background()
	var setups []float64
	var gs *gridSetup
	for i := 0; i < quickSetups; i++ {
		runtime.GC() // every set-up starts from the same heap state
		id := e.tr.start(nil, "bench.setup")
		t0 := time.Now()
		var err error
		if gs, err = setupGrid(e, id); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		id.End(nil)
	}
	r.set("setup_s", median(setups), "s", len(setups), "synthesize RF traces, resolve 12 paper scenarios")
	if err := gs.loadGoldens(e.man.GoldenDir); err != nil {
		return err
	}

	var passes []*gridPass
	var hits []float64
	stopProfile, err := e.startProfile()
	if err != nil {
		return err
	}
	defer stopProfile()
	g0 := readGoStats()
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for i := 0; len(passes) < 2 || time.Now().Before(deadline); i++ {
		// Traced runs alternate untraced and traced passes so the tracing
		// overhead is measured under the same conditions.
		e.tr.setOn(e.traced && i%2 == 1)
		p, err := runGridPass(ctx, e, gs, nil)
		e.tr.setOn(false)
		if err != nil {
			r.op(err)
			return err
		}
		var first *gridPass
		if len(passes) > 0 {
			first = passes[0]
		}
		checkGridPass(e, r, gs, p, first)
		h, err := gridHit(p.grid)
		r.op(err)
		if err == nil {
			hits = append(hits, h)
		}
		passes = append(passes, p)
	}
	g1 := readGoStats()
	stopProfile()

	var walls, traced, rates, groups, rows, batch, busy, tail []float64
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p.wall)
			continue
		}
		walls = append(walls, p.wall)
		rates = append(rates, p.simS/p.wall)
		groups = append(groups, p.groups...)
		rows = append(rows, p.rows...)
		busy = append(busy, sum(p.groups)/(gridWorkers*p.wall))
		tail = append(tail, gridTail(p.groupEnds))
	}
	for _, p := range passes {
		batch = append(batch, p.groups...)
	}
	r.set("wall_s", median(walls), "s", len(walls), "one 60-cell pass")
	r.set("sim_s_per_host_s", median(rates), "s/s", len(rates), "simulated cell-seconds per host second")
	r.set("run_p50_s", median(groups), "s", len(groups), "one paper scenario (5 buffers, one RF trace)")
	r.set("sweep_p50_s", median(rows), "s", len(rows), "one benchmark's row over the 3 RF traces, first start to last end")
	r.set("explore_p50_s", median(walls), "s", len(walls), "the whole bench × trace × buffer lattice")
	setHits(r, e, hits, 0, "paper tables rendered from the finished grid")

	if !e.traced {
		return nil
	}
	last := passes[len(passes)-1]
	cells := float64(last.grid.Len())
	r.set("sim.ticks_stepped", float64(last.stats.TicksSimulated), "count", 0, "per pass")
	r.set("sim.ticks_ff", float64(last.stats.TicksFastForwarded), "count", 0, "per pass")
	r.set("sim.ff_share", ffShare(last.stats.TicksSimulated, last.stats.TicksFastForwarded), "share", 0, "")
	r.set("sim.trace_passes", float64(last.stats.TracePasses), "count", 0, "per pass")
	r.set("sim.batch_ms", median(batch)*1e3, "ms", len(batch), "one lockstep RunBatch group")
	r.set("runner.busy_share", median(busy), "share", len(busy), "group time over workers × pass wall")
	r.set("runner.tail_s", median(tail), "s", len(tail), "time at the end of a pass with a worker idle")
	r.set("go.allocs_per_cell", float64(g1.mallocs-g0.mallocs)/(cells*float64(len(passes))), "count", 0, "")
	r.set("go.gc_cpu_share", gcShare(g0, g1), "share", 0, "")
	r.set("bench.trace_overhead_pct", overheadPct(walls, traced), "%", len(traced), "traced vs untraced pass wall")
	reportSelf(r, e.tr, len(traced))
	return runLadder(e, r)
}

// gridTail is how long the last group ran after the other workers had
// finished their final group: the pass's idle tail.
func gridTail(ends []float64) float64 {
	if len(ends) < gridWorkers {
		return 0
	}
	s := append([]float64(nil), ends...)
	sort.Float64s(s)
	return s[len(s)-1] - s[len(s)-gridWorkers]
}

func ffShare(stepped, ff uint64) float64 {
	if stepped+ff == 0 {
		return 0
	}
	return float64(ff) / float64(stepped+ff)
}

// overheadPct is the traced median over the untraced median, minus one, in
// percent.
func overheadPct(untraced, traced []float64) float64 {
	if len(untraced) == 0 || len(traced) == 0 {
		return 0
	}
	return 100 * (median(traced)/median(untraced) - 1)
}
