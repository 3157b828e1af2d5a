package explore

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"react/internal/runner"
	"react/internal/scenario"
	"react/internal/sim"
)

// testSpec is a tiny valid inline base: a 30 s steady trace driving DE.
func testSpec() *scenario.Spec {
	return &scenario.Spec{
		Name:     "explore-test",
		Trace:    scenario.TraceSpec{Gen: "steady", Mean: 0.01, Duration: 30},
		Workload: scenario.WorkloadSpec{Bench: "DE"},
		Buffers:  scenario.Presets("REACT"),
	}
}

func f64(v float64) *float64 { return &v }

// fakeEval fabricates results from a point's capacitance without
// simulating: blocks rises linearly with C, latency with C, duty falls.
// It also counts evaluated cells.
func fakeEval(count *int) Evaluator {
	return func(_ context.Context, cells []Cell) ([]sim.Result, error) {
		out := make([]sim.Result, len(cells))
		for i, c := range cells {
			*count++
			cap := 0.0
			if st := c.Spec.Buffers[0].Static; st != nil {
				cap = st.C
			}
			out[i] = sim.Result{
				Latency:  cap * 100,
				OnTime:   10 - cap*100,
				Duration: 10,
				Metrics:  map[string]float64{"blocks": cap * 1e6},
			}
		}
		return out, nil
	}
}

func TestResolveLatticeShape(t *testing.T) {
	sp := &Space{
		Spec:    testSpec(),
		Static:  &StaticAxis{From: 1e-4, To: 1e-2, Points: 5},
		Presets: []string{"REACT", "Morphy"},
		DTs:     []float64{0, 2e-3},
		Patches: []PatchAxis{{Path: "/workload/active_i", Values: []float64{0.5e-3, 1e-3}}},
		Seeds:   []uint64{1, 2},
	}
	plan, err := sp.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	// 2 patch values × 2 dts × (5 statics + 2 presets) = 28 points.
	if len(plan.Points) != 28 {
		t.Fatalf("%d points, want 28", len(plan.Points))
	}
	if len(plan.groups) != 4 {
		t.Fatalf("%d bisection groups, want one per (patch, dt)", len(plan.groups))
	}
	lattice := runner.Logspace(1e-4, 1e-2, 5)
	for g, group := range plan.groups {
		if len(group) != 5 {
			t.Fatalf("group %d has %d static points, want 5", g, len(group))
		}
		for i, pi := range group {
			pt := plan.Points[pi]
			if pt.C != lattice[i] {
				t.Errorf("group %d point %d: C %g, want %g", g, i, pt.C, lattice[i])
			}
			if len(pt.Spec.Buffers) != 1 || pt.Spec.Buffers[0].Static == nil {
				t.Errorf("point %d is not a single static-buffer spec", pi)
			}
		}
	}
	// Axis coordinates resolved: dt 0 became the spec default, the patch
	// landed in the derived workload, and labels are unique.
	seen := map[string]bool{}
	for _, pt := range plan.Points {
		if pt.DT != 1e-3 && pt.DT != 2e-3 {
			t.Errorf("unresolved dt %g", pt.DT)
		}
		if pt.Spec.DT != pt.DT {
			t.Errorf("derived spec dt %g != point dt %g", pt.Spec.DT, pt.DT)
		}
		ai := pt.Params["/workload/active_i"]
		if pt.Spec.Workload.ActiveI != ai {
			t.Errorf("patch not applied: spec active_i %g, param %g", pt.Spec.Workload.ActiveI, ai)
		}
		key := fmt.Sprintf("%s|%g|%g", pt.Buffer, pt.DT, ai)
		if seen[key] {
			t.Errorf("duplicate point %s", key)
		}
		seen[key] = true
	}
}

func TestResolveRejections(t *testing.T) {
	base := func() *Space {
		return &Space{Spec: testSpec(), Static: &StaticAxis{From: 1e-4, To: 1e-2, Points: 4}}
	}
	cases := map[string]func(*Space){
		"no base":          func(sp *Space) { sp.Spec = nil },
		"name and spec":    func(sp *Space) { sp.Scenario = "energy-attack" },
		"unknown scenario": func(sp *Space) { sp.Spec = nil; sp.Scenario = "nope" },
		"no buffer axis":   func(sp *Space) { sp.Static = nil },
		"zero from":        func(sp *Space) { sp.Static.From = 0 },
		"NaN from":         func(sp *Space) { sp.Static.From = math.NaN() },
		"to below from":    func(sp *Space) { sp.Static.To = 1e-5 },
		"zero points":      func(sp *Space) { sp.Static.Points = 0 },
		"bad scale":        func(sp *Space) { sp.Static.Scale = "cubic" },
		"unknown preset":   func(sp *Space) { sp.Presets = []string{"not-a-buffer"} },
		"duplicate preset": func(sp *Space) { sp.Presets = []string{"REACT", "REACT"} },
		"both seed forms":  func(sp *Space) { sp.Seeds = []uint64{1}; sp.SeedTo = 3 },
		"zero seed":        func(sp *Space) { sp.Seeds = []uint64{0} },
		"duplicate seed":   func(sp *Space) { sp.Seeds = []uint64{2, 2} },
		"empty seed range": func(sp *Space) { sp.SeedFrom = 5; sp.SeedTo = 2 },
		"from without to":  func(sp *Space) { sp.SeedFrom = 5 },
		"duplicate dt":     func(sp *Space) { sp.DTs = []float64{0, 1e-3} },
		"negative dt":      func(sp *Space) { sp.DTs = []float64{-1} },
		"bad strategy":     func(sp *Space) { sp.Strategy = "anneal" },
		"degenerate lattice": func(sp *Space) {
			sp.Static = &StaticAxis{From: 1e-3, To: 1e-3, Points: 5}
		},
		"target sans static axis": func(sp *Space) {
			sp.Static = nil
			sp.Presets = []string{"REACT"}
			sp.Target = &Target{Metric: "duty", Min: f64(0.5)}
		},
		"bisect sans axis": func(sp *Space) { sp.Strategy = StrategyBisect; sp.Static = nil; sp.Presets = []string{"REACT"} },
		"bisect w presets": func(sp *Space) {
			sp.Strategy = StrategyBisect
			sp.Presets = []string{"REACT"}
			sp.Target = &Target{Metric: "duty", Min: f64(0.5)}
		},
		"bisect sans goal": func(sp *Space) { sp.Strategy = StrategyBisect },
		"target both ends": func(sp *Space) { sp.Target = &Target{Metric: "duty", Min: f64(0.5), Max: f64(0.9)} },
		"target no metric": func(sp *Space) { sp.Target = &Target{Max: f64(1)} },
		"target NaN bound": func(sp *Space) { sp.Target = &Target{Metric: "duty", Min: f64(math.NaN())} },
		"pareto same axis": func(sp *Space) { sp.Pareto = []MetricPair{{X: "c", Y: "c"}} },
		"patch into buffers": func(sp *Space) {
			sp.Patches = []PatchAxis{{Path: "/buffers/0/static/c", Values: []float64{1}}}
		},
		"patch the seed":   func(sp *Space) { sp.Patches = []PatchAxis{{Path: "/seed", Values: []float64{2}}} },
		"patch no pointer": func(sp *Space) { sp.Patches = []PatchAxis{{Path: "workload", Values: []float64{1}}} },
		"patch no values":  func(sp *Space) { sp.Patches = []PatchAxis{{Path: "/workload/period", Values: nil}} },
		"patch NaN value":  func(sp *Space) { sp.Patches = []PatchAxis{{Path: "/workload/period", Values: []float64{math.NaN()}}} },
		"patch dup values": func(sp *Space) { sp.Patches = []PatchAxis{{Path: "/workload/period", Values: []float64{1, 1}}} },
		"patch dup paths": func(sp *Space) {
			sp.Patches = []PatchAxis{{Path: "/workload/period", Values: []float64{1}}, {Path: "/workload/period", Values: []float64{2}}}
		},
		"patch typo path":   func(sp *Space) { sp.Patches = []PatchAxis{{Path: "/workload/perod", Values: []float64{1}}} },
		"oversized lattice": func(sp *Space) { sp.Static.Points = 3000; sp.SeedFrom = 1; sp.SeedTo = 2 },
		// The patch cross product alone explodes past the bound: it must be
		// rejected arithmetically, before any expansion work happens.
		"oversized patch cross": func(sp *Space) {
			vals := make([]float64, 100)
			for i := range vals {
				vals[i] = float64(i + 1)
			}
			sp.Patches = []PatchAxis{
				{Path: "/workload/period", Values: vals},
				{Path: "/workload/active_i", Values: vals},
				{Path: "/trace/mean", Values: vals},
			}
		},
	}
	for label, mutate := range cases {
		sp := base()
		mutate(sp)
		if _, err := sp.Resolve(); err == nil {
			t.Errorf("%s: Resolve must reject it", label)
		}
	}
	if _, err := base().Resolve(); err != nil {
		t.Fatalf("the base space must resolve: %v", err)
	}
}

func TestParseSpaceRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpace([]byte(`{"scenario":"energy-attack","presets":["REACT"],"statik":{}}`)); err == nil {
		t.Fatal("a typo'd axis name must be rejected")
	}
	sp, err := ParseSpace([]byte(`{"scenario":"energy-attack","presets":["REACT","770 µF"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Scenario != "energy-attack" {
		t.Fatalf("parsed space wrong: %+v", sp)
	}
}

func TestBisectFindsMinimalLatticePoint(t *testing.T) {
	// blocks = C·1e6 rises with capacitance; the target floor lands inside
	// the lattice, so bisection must return the first lattice point at or
	// above it and probe only O(log n) points.
	const n = 33
	lattice := runner.Logspace(1e-4, 1e-1, n)
	sp := &Space{
		Spec:     testSpec(),
		Static:   &StaticAxis{From: 1e-4, To: 1e-1, Points: n},
		Strategy: StrategyBisect,
		Target:   &Target{Metric: "blocks", Min: f64(3000)}, // C ≥ 3 mF
	}
	count := 0
	res, err := Run(context.Background(), sp, fakeEval(&count))
	if err != nil {
		t.Fatal(err)
	}
	want := -1
	for i, c := range lattice {
		if c*1e6 >= 3000 {
			want = i
			break
		}
	}
	if len(res.Best) != 1 || !res.Best[0].Satisfied || res.Best[0].Point != want {
		t.Fatalf("best %+v, want point %d", res.Best, want)
	}
	if maxEvals := 2 + bits(n); res.Evaluated > maxEvals || count > maxEvals {
		t.Errorf("bisection evaluated %d points (%d cells), want ≤ %d", res.Evaluated, count, maxEvals)
	}
	if res.Evaluated != res.Best[0].Evaluations {
		t.Errorf("evaluation accounting: result %d, best %d", res.Evaluated, res.Best[0].Evaluations)
	}
	for i, pr := range res.Points {
		if !pr.Evaluated && pr.Summary != nil {
			t.Errorf("unevaluated point %d carries a summary", i)
		}
	}

	// Unsatisfiable: the floor is above the whole lattice — two probes.
	sp.Target = &Target{Metric: "blocks", Min: f64(1e9)}
	count = 0
	res, err = Run(context.Background(), sp, fakeEval(&count))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best[0].Satisfied || res.Best[0].Point != -1 || res.Evaluated != 2 {
		t.Fatalf("unsatisfiable bisection wrong: %+v (evaluated %d)", res.Best[0], res.Evaluated)
	}

	// Met at the lower edge: a single probe suffices.
	sp.Target = &Target{Metric: "blocks", Min: f64(1)}
	res, err = Run(context.Background(), sp, fakeEval(new(int)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best[0].Satisfied || res.Best[0].Point != 0 || res.Evaluated != 1 {
		t.Fatalf("met-at-lo bisection wrong: %+v (evaluated %d)", res.Best[0], res.Evaluated)
	}
}

// bits returns ceil(log2(n)) + 1, the binary-search probe bound.
func bits(n int) int {
	b := 1
	for 1<<b < n {
		b++
	}
	return b + 1
}

// TestUnknownMetricNamesAreRejected pins the typo guard: a target or
// Pareto pair naming a metric no evaluated point carries fails the run
// instead of masquerading as an empty frontier or an unsatisfiable
// bisection.
func TestUnknownMetricNamesAreRejected(t *testing.T) {
	base := &Space{Spec: testSpec(), Static: &StaticAxis{From: 1e-4, To: 1e-2, Points: 4}}
	sp := *base
	sp.Pareto = []MetricPair{{X: "latencyy", Y: "c"}}
	if _, err := Run(context.Background(), &sp, fakeEval(new(int))); err == nil || !strings.Contains(err.Error(), "latencyy") {
		t.Errorf("typo'd pareto metric must fail naming the metric, got %v", err)
	}
	sp = *base
	sp.Strategy = StrategyBisect
	sp.Target = &Target{Metric: "dead_tme", Max: f64(0.5)}
	if _, err := Run(context.Background(), &sp, fakeEval(new(int))); err == nil || !strings.Contains(err.Error(), "dead_tme") {
		t.Errorf("typo'd target metric must fail naming the metric, got %v", err)
	}
	// Legitimate names — built-ins, counters the workload reports, and
	// axis pseudo-metrics — pass.
	sp = *base
	sp.Target = &Target{Metric: "blocks", Min: f64(1)}
	sp.Pareto = []MetricPair{{X: MetricC, Y: MetricDead}}
	if _, err := Run(context.Background(), &sp, fakeEval(new(int))); err != nil {
		t.Errorf("known metrics spuriously rejected: %v", err)
	}
}

func TestGridTargetScansMinimalPoint(t *testing.T) {
	sp := &Space{
		Spec:   testSpec(),
		Static: &StaticAxis{From: 1e-4, To: 1e-1, Points: 8},
		Target: &Target{Metric: "blocks", Min: f64(3000)},
	}
	res, err := Run(context.Background(), sp, fakeEval(new(int)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 8 {
		t.Fatalf("grid evaluated %d points, want all 8", res.Evaluated)
	}
	lattice := runner.Logspace(1e-4, 1e-1, 8)
	want := -1
	for i, c := range lattice {
		if c*1e6 >= 3000 {
			want = i
			break
		}
	}
	if len(res.Best) != 1 || !res.Best[0].Satisfied || res.Best[0].Point != want {
		t.Fatalf("grid best %+v, want point %d", res.Best, want)
	}
}

func TestFrontierExtraction(t *testing.T) {
	// Hand-built points: latency minimize, blocks maximize. Point 1 is
	// dominated by point 0 (slower, no more blocks); point 3 never
	// started, so it has no latency value and is excluded.
	points := []PointResult{
		{Evaluated: true, Metrics: map[string]float64{"latency": 1, "blocks": 10}},
		{Evaluated: true, Metrics: map[string]float64{"latency": 2, "blocks": 10}},
		{Evaluated: true, Metrics: map[string]float64{"latency": 3, "blocks": 20}},
		{Evaluated: true, Metrics: map[string]float64{"blocks": 99}},
		{Evaluated: false, Metrics: nil},
	}
	f := extractFrontier(points, MetricPair{X: "latency", Y: "blocks"})
	if !reflect.DeepEqual(f.Points, []int{0, 2}) {
		t.Fatalf("frontier %v, want [0 2]", f.Points)
	}
	// Size-vs-dead-time: both minimized; the cheap-but-dead and the
	// big-but-alive ends both survive, the strictly-worse middle dies.
	points = []PointResult{
		{Evaluated: true, C: 1e-4, DT: 1e-3, Metrics: map[string]float64{"dead_time": 0.5}},
		{Evaluated: true, C: 1e-3, DT: 1e-3, Metrics: map[string]float64{"dead_time": 0.6}},
		{Evaluated: true, C: 1e-2, DT: 1e-3, Metrics: map[string]float64{"dead_time": 0.1}},
	}
	f = extractFrontier(points, MetricPair{X: "c", Y: "dead_time"})
	if !reflect.DeepEqual(f.Points, []int{0, 2}) {
		t.Fatalf("c-vs-dead frontier %v, want [0 2]", f.Points)
	}
}

func TestPointMetrics(t *testing.T) {
	results := []sim.Result{
		{Latency: 2, OnTime: 5, Duration: 10, Metrics: map[string]float64{"blocks": 4}},
		{Latency: 4, OnTime: 3, Duration: 10, Metrics: map[string]float64{"blocks": 8}},
	}
	results[0].Ledger.Harvested = 10
	results[0].Ledger.Consumed = 4
	results[1].Ledger.Harvested = 10
	results[1].Ledger.Consumed = 6
	sum, m := PointMetrics(results)
	if sum.Seeds != 2 || m[MetricLatency] != 3 || m["blocks"] != 6 {
		t.Fatalf("metrics wrong: %+v / %+v", sum, m)
	}
	if math.Abs(m[MetricDuty]-0.4) > 1e-15 || math.Abs(m[MetricDead]-0.6) > 1e-15 {
		t.Errorf("duty/dead wrong: %+v", m)
	}
	if math.Abs(m[MetricEfficiency]-0.5) > 1e-15 {
		t.Errorf("efficiency %g, want 0.5", m[MetricEfficiency])
	}
	// No seed started: the latency metric is absent, not a sentinel.
	_, m = PointMetrics([]sim.Result{{Latency: -1, Duration: 10, Metrics: map[string]float64{}}})
	if _, ok := m[MetricLatency]; ok {
		t.Error("never-started point must not carry a latency metric")
	}
}

// TestExploreLocalGrid runs a real (tiny) exploration through the local
// evaluator: a three-point capacitance lattice plus a preset, with a
// frontier over size vs latency.
func TestExploreLocalGrid(t *testing.T) {
	sp := &Space{
		Spec:    testSpec(),
		Static:  &StaticAxis{From: 500e-6, To: 10e-3, Points: 3},
		Presets: []string{"REACT"},
		Pareto:  []MetricPair{{X: MetricC, Y: MetricLatency}},
	}
	res, err := Run(context.Background(), sp, Local(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 4 || len(res.Points) != 4 {
		t.Fatalf("evaluated %d of %d points, want 4 of 4", res.Evaluated, len(res.Points))
	}
	for i, pr := range res.Points {
		if pr.Summary == nil || pr.Summary.Seeds != 1 {
			t.Fatalf("point %d: missing summary", i)
		}
		if _, ok := pr.Metrics[MetricDuty]; !ok {
			t.Fatalf("point %d: missing duty metric", i)
		}
		if pr.Metrics[MetricEfficiency] <= 0 || pr.Metrics[MetricEfficiency] > 1 {
			t.Errorf("point %d: efficiency %g out of (0, 1]", i, pr.Metrics[MetricEfficiency])
		}
	}
	if res.Points[3].Buffer != "REACT" || res.Points[3].C != 0 {
		t.Errorf("preset point wrong: %+v", res.Points[3])
	}
	// On a steady trace, latency rises with capacitance, so every static
	// point is Pareto-optimal for (c, latency) — and the preset (no c) is
	// excluded.
	if len(res.Frontiers) != 1 {
		t.Fatalf("%d frontiers, want 1", len(res.Frontiers))
	}
	for _, pi := range res.Frontiers[0].Points {
		if res.Points[pi].C == 0 {
			t.Errorf("preset point %d on a c-frontier", pi)
		}
	}
	if len(res.Frontiers[0].Points) == 0 {
		t.Error("empty frontier")
	}
	// The static labels read as capacitances.
	if !strings.Contains(res.Points[0].Buffer, "µF") {
		t.Errorf("static label %q not a capacitance", res.Points[0].Buffer)
	}
}

// mixedSpace crosses every axis kind: a static lattice, presets (grid
// only: bisection searches the capacitance lattice), two timesteps (one
// the spec default spelled as 0), a patch axis and three seeds.
func mixedSpace(strategy string) *Space {
	sp := &Space{
		Spec:     testSpec(),
		Static:   &StaticAxis{From: 1e-4, To: 1e-2, Points: 5},
		Presets:  []string{"REACT", "Morphy", "770 µF"},
		DTs:      []float64{0, 2e-3},
		Patches:  []PatchAxis{{Path: "/workload/active_i", Values: []float64{0.5e-3, 1e-3}}},
		Seeds:    []uint64{1, 2, 3},
		Strategy: strategy,
	}
	if strategy == StrategyBisect {
		sp.Presets = nil
		sp.Target = &Target{Metric: "blocks", Min: f64(3000)}
	}
	return sp
}

// TestPlanCellAddressesDistinct pins the invariant that lets Local run
// every cell it is handed without a memo: no two cells of a resolved plan
// share a content address, and a run never hands the evaluator the same
// address twice, across batches included.
func TestPlanCellAddressesDistinct(t *testing.T) {
	plan, err := mixedSpace(StrategyGrid).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for pi, pt := range plan.Points {
		for _, seed := range plan.Seeds {
			fp, err := pt.Spec.FingerprintCell(0, scenario.RunOptions{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			cell := fmt.Sprintf("point %d (%s, dt %g, %v) seed %d", pi, pt.Buffer, pt.DT, pt.Params, seed)
			if prev, dup := seen[fp]; dup {
				t.Errorf("%s shares its address with %s", cell, prev)
			}
			seen[fp] = cell
		}
	}
	if want := len(plan.Points) * len(plan.Seeds); len(seen) != want {
		t.Errorf("%d distinct addresses, want %d", len(seen), want)
	}

	for _, strategy := range []string{StrategyGrid, StrategyBisect} {
		asked := map[string]bool{}
		count := 0
		fake := fakeEval(&count)
		ev := func(ctx context.Context, cells []Cell) ([]sim.Result, error) {
			for _, c := range cells {
				fp, err := c.Spec.FingerprintCell(0, c.Opt)
				if err != nil {
					return nil, err
				}
				if asked[fp] {
					t.Errorf("%s: point %d seed %d asked for twice", strategy, c.Point, c.Seed)
				}
				asked[fp] = true
			}
			return fake(ctx, cells)
		}
		if _, err := Run(context.Background(), mixedSpace(strategy), ev); err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if len(asked) == 0 {
			t.Errorf("%s: no cells evaluated", strategy)
		}
	}
}
