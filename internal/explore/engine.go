package explore

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"react/internal/scenario"
	"react/internal/sim"
)

// Point metric names every evaluated point carries, alongside the means of
// the workload's own counters. The axis pseudo-metrics "c" and "dt" are
// also addressable in targets and Pareto pairs.
const (
	// MetricLatency is the across-seed mean time-to-first-enable, present
	// only when at least one seed started.
	MetricLatency = "latency"
	// MetricDuty is the mean on-time fraction; MetricDead its complement
	// (the fraction of the run spent unpowered — "dead time").
	MetricDuty = "duty"
	MetricDead = "dead_time"
	// MetricEfficiency is the mean fraction of input energy (harvest plus
	// initial charge) the workload actually consumed.
	MetricEfficiency = "efficiency"
	// MetricC and MetricDT address the point's axis coordinates.
	MetricC  = "c"
	MetricDT = "dt"
)

// MetricDirection returns the optimization direction of a metric: -1 for
// smaller-is-better (latency, dead time, capacitance, timestep), +1 for
// larger-is-better (duty, efficiency, workload counters).
func MetricDirection(name string) int {
	switch name {
	case MetricLatency, MetricDead, MetricC, MetricDT:
		return -1
	}
	return 1
}

// Cell is one unit of exploration work: seed s of point p, as the derived
// single-buffer spec to simulate. Its content address is
// Spec.FingerprintCell(0, Opt) — the same address an equivalent run or
// sweep cell resolves to, which is what lets evaluators share caches.
type Cell struct {
	Point int
	Seed  uint64
	Spec  *scenario.Spec
	Opt   scenario.RunOptions
}

// Evaluator executes one batch of cells and returns their results in cell
// order. Local (in-process, over the experiment engine) and the service
// (shared content-addressed cell cache) both implement it.
type Evaluator func(ctx context.Context, cells []Cell) ([]sim.Result, error)

// PointResult is one lattice point's outcome. Unevaluated points (bisect
// skips most of the lattice) carry only their coordinates.
type PointResult struct {
	Buffer string             `json:"buffer"`
	C      float64            `json:"c,omitempty"`
	DT     float64            `json:"dt"`
	Params map[string]float64 `json:"params,omitempty"`

	Evaluated bool                  `json:"evaluated"`
	Summary   *scenario.SeedSummary `json:"summary,omitempty"`
	// Metrics are the point's scalar objectives: latency (if started),
	// duty, dead_time, efficiency, and each workload counter's mean.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Value returns the point's value for a metric or axis pseudo-metric.
func (pr *PointResult) Value(metric string) (float64, bool) {
	if v, ok := pr.Metrics[metric]; ok {
		return v, true
	}
	switch metric {
	case MetricC:
		if pr.C > 0 {
			return pr.C, true
		}
	case MetricDT:
		return pr.DT, true
	}
	v, ok := pr.Params[metric]
	return v, ok
}

// Best is one bisection (or grid scan) outcome: the minimal-capacitance
// lattice point meeting the target within one (patch, dt) group.
type Best struct {
	// DT and Params identify the group.
	DT     float64            `json:"dt"`
	Params map[string]float64 `json:"params,omitempty"`
	// Satisfied reports whether any probed point met the target; Point is
	// its index into Result.Points (-1 when unsatisfiable on the axis).
	Satisfied bool `json:"satisfied"`
	Point     int  `json:"point"`
	// Evaluations counts the lattice points this group probed.
	Evaluations int `json:"evaluations"`
}

// Frontier is one Pareto frontier: the indices of the non-dominated
// evaluated points for the pair's two objectives, sorted by X ascending.
type Frontier struct {
	X      string `json:"x"`
	Y      string `json:"y"`
	Points []int  `json:"points"`
}

// Result is a completed exploration. It is pure data — JSON-stable and
// deterministic for a given space and seed set, whichever evaluator (or
// worker count) produced it.
type Result struct {
	Scenario  string        `json:"scenario"`
	Strategy  string        `json:"strategy"`
	Seeds     []uint64      `json:"seeds"`
	Target    *Target       `json:"target,omitempty"`
	Points    []PointResult `json:"points"`
	Evaluated int           `json:"evaluated"`
	Best      []Best        `json:"best,omitempty"`
	Frontiers []Frontier    `json:"frontiers,omitempty"`
}

// PointMetrics computes one point's across-seed summary and scalar
// objectives from its per-seed results (in seed order). It is the single
// implementation both the local path and the service report through, so a
// remote exploration's numbers are bit-identical to a local one's.
func PointMetrics(results []sim.Result) (scenario.SeedSummary, map[string]float64) {
	sum := scenario.AggregateSeeds(results)
	m := map[string]float64{
		MetricDuty: sum.Duty.Mean,
		MetricDead: 1 - sum.Duty.Mean,
	}
	if sum.Started > 0 {
		m[MetricLatency] = sum.Latency.Mean
	}
	var eff float64
	for _, r := range results {
		if in := r.Ledger.Harvested + r.InitialStored; in > 0 {
			eff += r.Ledger.Consumed / in
		}
	}
	if len(results) > 0 {
		m[MetricEfficiency] = eff / float64(len(results))
	}
	for k, ms := range sum.Metrics {
		if _, clash := m[k]; !clash {
			m[k] = ms.Mean
		}
	}
	return sum, m
}

// Run resolves the space and executes it: the convenience over
// Space.Resolve plus Plan.Run.
func Run(ctx context.Context, sp *Space, ev Evaluator) (*Result, error) {
	plan, err := sp.Resolve()
	if err != nil {
		return nil, err
	}
	return plan.Run(ctx, ev)
}

// Run executes the plan over an evaluator and assembles the result:
// every point the strategy asked for is evaluated across the seed axis,
// targets are resolved, and the requested frontiers extracted.
func (p *Plan) Run(ctx context.Context, ev Evaluator) (*Result, error) {
	res := &Result{
		Scenario: p.Base.Name,
		Strategy: p.Strategy,
		Seeds:    p.Seeds,
		Target:   p.Target,
		Points:   make([]PointResult, len(p.Points)),
	}
	for i, pt := range p.Points {
		res.Points[i] = PointResult{Buffer: pt.Buffer, C: pt.C, DT: pt.DT, Params: pt.Params}
	}

	// evalPoints runs one batch: the not-yet-evaluated points of idx, each
	// across the full seed axis.
	evalPoints := func(idx []int) error {
		var fresh []int
		for _, pi := range idx {
			if !res.Points[pi].Evaluated {
				fresh = append(fresh, pi)
			}
		}
		if len(fresh) == 0 {
			return nil
		}
		cells := make([]Cell, 0, len(fresh)*len(p.Seeds))
		for _, pi := range fresh {
			for _, seed := range p.Seeds {
				cells = append(cells, Cell{
					Point: pi, Seed: seed,
					Spec: p.Points[pi].Spec,
					Opt:  scenario.RunOptions{Seed: seed},
				})
			}
		}
		results, err := ev(ctx, cells)
		if err != nil {
			return err
		}
		if len(results) != len(cells) {
			return fmt.Errorf("explore: evaluator returned %d results for %d cells", len(results), len(cells))
		}
		for j, pi := range fresh {
			seg := results[j*len(p.Seeds) : (j+1)*len(p.Seeds)]
			sum, metrics := PointMetrics(seg)
			res.Points[pi].Evaluated = true
			res.Points[pi].Summary = &sum
			res.Points[pi].Metrics = metrics
			res.Evaluated++
		}
		return nil
	}

	met := func(pi int) bool {
		v, ok := res.Points[pi].Value(p.Target.Metric)
		return p.Target.Met(v, ok)
	}

	switch p.Strategy {
	case StrategyGrid:
		all := make([]int, len(p.Points))
		for i := range all {
			all[i] = i
		}
		if err := evalPoints(all); err != nil {
			return nil, err
		}
		if p.Target != nil {
			// The grid scan finds the true minimal satisfying point per
			// group, monotone or not.
			for _, g := range p.groups {
				b := Best{DT: res.Points[g[0]].DT, Params: res.Points[g[0]].Params, Point: -1, Evaluations: len(g)}
				for _, pi := range g {
					if met(pi) {
						b.Satisfied, b.Point = true, pi
						break
					}
				}
				res.Best = append(res.Best, b)
			}
		}
	case StrategyBisect:
		// Binary search per group, assuming the target predicate flips at
		// most once — unmet to met — as capacitance grows. Probed points
		// are always lattice points, so a bisection after a covering grid
		// touches only already-cached addresses.
		for _, g := range p.groups {
			b := Best{DT: res.Points[g[0]].DT, Params: res.Points[g[0]].Params, Point: -1}
			evals := res.Evaluated
			lo, hi := 0, len(g)-1
			if err := evalPoints([]int{g[lo]}); err != nil {
				return nil, err
			}
			switch {
			case met(g[lo]):
				b.Satisfied, b.Point = true, g[lo]
			case lo == hi:
				// single-point lattice, already probed and unmet
			default:
				if err := evalPoints([]int{g[hi]}); err != nil {
					return nil, err
				}
				if met(g[hi]) {
					for hi-lo > 1 {
						mid := (lo + hi) / 2
						if err := evalPoints([]int{g[mid]}); err != nil {
							return nil, err
						}
						if met(g[mid]) {
							hi = mid
						} else {
							lo = mid
						}
					}
					b.Satisfied, b.Point = true, g[hi]
				}
			}
			b.Evaluations = res.Evaluated - evals
			res.Best = append(res.Best, b)
		}
	}

	// A typo'd metric name must fail loudly, not masquerade as an empty
	// frontier or an "unsatisfiable" bisection. Workload counters are only
	// knowable after simulation, so the check runs over the evaluated
	// points: a name is addressable if it is a built-in objective, an axis
	// pseudo-metric, a patch path, or a counter some evaluated point
	// actually reported.
	known := res.knownMetrics()
	if p.Target != nil && !known[p.Target.Metric] {
		return nil, fmt.Errorf("explore: target names unknown metric %q (known: %s)", p.Target.Metric, knownList(known))
	}
	for _, pair := range p.Pareto {
		if !known[pair.X] || !known[pair.Y] {
			return nil, fmt.Errorf("explore: pareto pair %s vs %s names an unknown metric (known: %s)", pair.X, pair.Y, knownList(known))
		}
		res.Frontiers = append(res.Frontiers, extractFrontier(res.Points, pair))
	}
	return res, nil
}

// knownMetrics collects every metric name addressable on this result's
// points: the built-in objectives and pseudo-metrics, patch paths, and
// the workload counters the evaluated points reported.
func (res *Result) knownMetrics() map[string]bool {
	known := map[string]bool{
		MetricLatency: true, MetricDuty: true, MetricDead: true,
		MetricEfficiency: true, MetricC: true, MetricDT: true,
	}
	for i := range res.Points {
		for k := range res.Points[i].Metrics {
			known[k] = true
		}
		for p := range res.Points[i].Params {
			known[p] = true
		}
	}
	return known
}

// knownList renders a known-metric set for error messages, sorted.
func knownList(known map[string]bool) string {
	names := make([]string, 0, len(known))
	for k := range known {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// extractFrontier returns the non-dominated evaluated points for one
// objective pair, sorted by X ascending (index breaks ties). A point
// missing either value (latency when no seed started, "c" on a preset) is
// excluded.
func extractFrontier(points []PointResult, pair MetricPair) Frontier {
	f := Frontier{X: pair.X, Y: pair.Y, Points: []int{}}
	dx, dy := float64(MetricDirection(pair.X)), float64(MetricDirection(pair.Y))
	type cand struct {
		idx  int
		x, y float64
	}
	var cs []cand
	for i := range points {
		if !points[i].Evaluated {
			continue
		}
		x, okx := points[i].Value(pair.X)
		y, oky := points[i].Value(pair.Y)
		if okx && oky {
			cs = append(cs, cand{i, x, y})
		}
	}
	for _, c := range cs {
		dominated := false
		for _, o := range cs {
			if o.idx == c.idx {
				continue
			}
			// o dominates c when it is at least as good on both objectives
			// and strictly better on one.
			if dx*o.x >= dx*c.x && dy*o.y >= dy*c.y && (dx*o.x > dx*c.x || dy*o.y > dy*c.y) {
				dominated = true
				break
			}
		}
		if !dominated {
			f.Points = append(f.Points, c.idx)
		}
	}
	sort.SliceStable(f.Points, func(a, b int) bool {
		xa, _ := points[f.Points[a]].Value(pair.X)
		xb, _ := points[f.Points[b]].Value(pair.X)
		//lint:reactlint-ignore dtarith sort tie-break: only bit-equal keys may fall through to the index comparison, a tolerance would make the order input-dependent
		if xa != xb {
			return xa < xb
		}
		return f.Points[a] < f.Points[b]
	})
	return f
}
