package runner

import (
	"context"
	"fmt"

	"react/internal/sim"
	"react/internal/trace"
)

// Grid is a dense result store over the evaluation's three axes. Cells live
// in one flat slice indexed benchmark-major (benchmark × trace × buffer),
// replacing the triple-nested maps the grid-shaped drivers used to carry:
// O(1) typed access, cache-friendly iteration, and no per-lookup hashing.
type Grid struct {
	Benchmarks []string
	Traces     []*trace.Trace
	Buffers    []string

	results  []sim.Result
	benchIdx map[string]int
	traceIdx map[string]int
	bufIdx   map[string]int
}

// NewGrid builds an empty grid over the given axes. Axis names must be
// unique — duplicates would make the name-based accessors silently read
// one cell for several coordinates, so they panic (a caller bug, like the
// unknown-name panics in Index). Multi-seed studies over same-named
// traces belong in a Sweep, or need per-seed trace names.
func NewGrid(benchmarks []string, traces []*trace.Trace, buffers []string) *Grid {
	g := &Grid{
		Benchmarks: benchmarks,
		Traces:     traces,
		Buffers:    buffers,
		results:    make([]sim.Result, len(benchmarks)*len(traces)*len(buffers)),
		benchIdx:   make(map[string]int, len(benchmarks)),
		traceIdx:   make(map[string]int, len(traces)),
		bufIdx:     make(map[string]int, len(buffers)),
	}
	for i, b := range benchmarks {
		if _, dup := g.benchIdx[b]; dup {
			panic("runner: duplicate benchmark " + b)
		}
		g.benchIdx[b] = i
	}
	for i, tr := range traces {
		if _, dup := g.traceIdx[tr.Name]; dup {
			panic("runner: duplicate trace " + tr.Name)
		}
		g.traceIdx[tr.Name] = i
	}
	for i, b := range buffers {
		if _, dup := g.bufIdx[b]; dup {
			panic("runner: duplicate buffer " + b)
		}
		g.bufIdx[b] = i
	}
	return g
}

// Len returns the number of cells.
func (g *Grid) Len() int { return len(g.results) }

func (g *Grid) flatten(b, t, u int) int {
	return (b*len(g.Traces)+t)*len(g.Buffers) + u
}

// Index returns the flat cell index for named axes values. Unknown names
// panic — the axes are fixed at construction, so a miss is a caller bug,
// exactly like the experiment factories' unknown-name panics.
func (g *Grid) Index(bench, traceName, buffer string) int {
	b, ok := g.benchIdx[bench]
	if !ok {
		panic("runner: unknown benchmark " + bench)
	}
	t, ok := g.traceIdx[traceName]
	if !ok {
		panic("runner: unknown trace " + traceName)
	}
	u, ok := g.bufIdx[buffer]
	if !ok {
		panic("runner: unknown buffer " + buffer)
	}
	return g.flatten(b, t, u)
}

// At returns the result of one named cell.
func (g *Grid) At(bench, traceName, buffer string) sim.Result {
	return g.results[g.Index(bench, traceName, buffer)]
}

// Set stores the result of one named cell.
func (g *Grid) Set(bench, traceName, buffer string, r sim.Result) {
	g.results[g.Index(bench, traceName, buffer)] = r
}

// Cell returns the axes values of flat index i.
func (g *Grid) Cell(i int) (bench string, tr *trace.Trace, buffer string) {
	nb := len(g.Buffers)
	nt := len(g.Traces)
	return g.Benchmarks[i/(nt*nb)], g.Traces[(i/nb)%nt], g.Buffers[i%nb]
}

// Each calls fn for every cell in benchmark-major order.
func (g *Grid) Each(fn func(bench string, tr *trace.Trace, buffer string, r sim.Result)) {
	for i, r := range g.results {
		bench, tr, buffer := g.Cell(i)
		fn(bench, tr, buffer, r)
	}
}

// MeanOverTraces returns the mean of metric(result) across the trace axis
// for one benchmark × buffer column — the aggregation every table and
// figure performs.
func (g *Grid) MeanOverTraces(bench, buffer string, metric func(sim.Result) float64) float64 {
	if len(g.Traces) == 0 {
		return 0
	}
	var sum float64
	for _, tr := range g.Traces {
		sum += metric(g.At(bench, tr.Name, buffer))
	}
	return sum / float64(len(g.Traces))
}

// BatchCellFunc simulates one benchmark × trace group of grid cells — the
// whole buffer row — in one call, returning results index-parallel to the
// grid's buffer axis.
type BatchCellFunc func(ctx context.Context, bench string, tr *trace.Trace, buffers []string) ([]sim.Result, error)

// RunGridBatched populates a new grid over r's worker pool (nil r uses the
// default pool), dispatching one job per benchmark × trace group so a
// group's buffers can share a single lockstep pass over the trace
// (scenario.RunBatch). The flat grid layout is buffer-minor, so each group
// fills one contiguous results stripe. Group errors are labeled with their
// benchmark/trace coordinates; the first failing group in grid order is
// reported.
func RunGridBatched(ctx context.Context, r *Runner, benchmarks []string, traces []*trace.Trace, buffers []string, group BatchCellFunc) (*Grid, error) {
	g := NewGrid(benchmarks, traces, buffers)
	nb := len(buffers)
	err := r.Do(ctx, len(benchmarks)*len(traces), func(ctx context.Context, gi int) error {
		bench := benchmarks[gi/len(traces)]
		tr := traces[gi%len(traces)]
		res, err := group(ctx, bench, tr, buffers)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", bench, tr.Name, err)
		}
		if len(res) != nb {
			return fmt.Errorf("%s/%s: group returned %d results for %d buffers", bench, tr.Name, len(res), nb)
		}
		copy(g.results[gi*nb:(gi+1)*nb], res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}
