package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"react/internal/ckpt"
	"react/internal/explore"
	"react/internal/scenario"
)

// exploreBase is the inline base spec exploration tests derive points
// from: a 30 s steady trace driving DE (milliseconds per cell). The
// declared buffer is replaced by the space's buffer axis.
func exploreBase() *scenario.Spec {
	spec, err := scenario.ParseSpec([]byte(fastSpec))
	if err != nil {
		panic(err)
	}
	return spec
}

func TestExploreEndToEnd(t *testing.T) {
	_, c := newTestService(t, Config{})
	ctx := context.Background()
	space := &explore.Space{
		Spec:    exploreBase(),
		Static:  &explore.StaticAxis{From: 500e-6, To: 5e-3, Points: 3},
		Presets: []string{"REACT"},
		Seeds:   []uint64{1, 2},
		Pareto:  []explore.MetricPair{{X: explore.MetricC, Y: explore.MetricLatency}},
	}
	st, err := c.Explore(ctx, space)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusDone || st.Result == nil {
		t.Fatalf("exploration did not complete: %+v", st)
	}
	if st.TotalPoints != 4 || st.EvaluatedPoints != 4 || len(st.Cells) != 8 {
		t.Fatalf("shape wrong: %d/%d points, %d cells", st.EvaluatedPoints, st.TotalPoints, len(st.Cells))
	}
	if st.Result.Evaluated != 4 || len(st.Result.Frontiers) != 1 {
		t.Fatalf("result wrong: evaluated %d, %d frontiers", st.Result.Evaluated, len(st.Result.Frontiers))
	}
	for i, pr := range st.Result.Points {
		if !pr.Evaluated || pr.Summary == nil || pr.Summary.Seeds != 2 {
			t.Errorf("point %d not aggregated over both seeds: %+v", i, pr)
		}
	}
	m, _ := c.Metrics(ctx)
	if m.Explorations != 1 || m.ExploreCells != 8 || m.ExplorePoints != 4 {
		t.Errorf("explore counters wrong: %+v", m)
	}

	// The remote result is bit-identical to running the same space
	// locally — the engine and the aggregation are the same code.
	local, err := explore.Run(ctx, space, explore.Local(2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Result, local) {
		t.Errorf("remote exploration diverged from the local path:\n got %+v\nwant %+v", st.Result, local)
	}
}

// TestExploreGridThenBisectZeroNewSims is the issue's cache-coherence
// acceptance pin: a bisection exploration submitted after a grid that
// covered its lattice touches only cached cells — cell hits rise, misses
// and simulations stay put.
func TestExploreGridThenBisectZeroNewSims(t *testing.T) {
	_, c := newTestService(t, Config{})
	ctx := context.Background()
	axis := &explore.StaticAxis{From: 300e-6, To: 10e-3, Points: 8}
	grid, err := c.Explore(ctx, &explore.Space{Spec: exploreBase(), Static: axis, Seeds: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if grid.Result == nil || grid.Result.Evaluated != 8 {
		t.Fatalf("grid did not evaluate the lattice: %+v", grid.Result)
	}
	// A target whose boundary falls inside the lattice: on a steady trace
	// blocks fall as capacitance grows (later start), so "blocks ≤ K" is
	// the rising predicate bisection assumes. K sits between two interior
	// lattice points' values, forcing real midpoint probes.
	b4, _ := grid.Result.Points[4].Value("blocks")
	b5, _ := grid.Result.Points[5].Value("blocks")
	k := (b4 + b5) / 2
	m0, _ := c.Metrics(ctx)

	bis, err := c.Explore(ctx, &explore.Space{
		Spec:     exploreBase(),
		Static:   axis,
		Seeds:    []uint64{1},
		Strategy: explore.StrategyBisect,
		Target:   &explore.Target{Metric: "blocks", Max: &k},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bis.NewCells != 0 || bis.CoalescedCells != 0 || bis.CachedCells != len(bis.Cells) {
		t.Errorf("bisection attached fresh cells: %d new, %d coalesced, %d cached of %d",
			bis.NewCells, bis.CoalescedCells, bis.CachedCells, len(bis.Cells))
	}
	m1, _ := c.Metrics(ctx)
	if m1.CellMisses != m0.CellMisses {
		t.Errorf("cell misses went %d -> %d: bisection re-simulated grid cells", m0.CellMisses, m1.CellMisses)
	}
	if m1.SimsCompleted != m0.SimsCompleted {
		t.Errorf("simulations went %d -> %d, want zero new work", m0.SimsCompleted, m1.SimsCompleted)
	}
	if m1.CellHits <= m0.CellHits {
		t.Errorf("cell hits did not rise (%d -> %d)", m0.CellHits, m1.CellHits)
	}
	// The bisection's answer agrees with scanning the covering grid.
	if len(bis.Result.Best) != 1 || !bis.Result.Best[0].Satisfied {
		t.Fatalf("bisection found no satisfying point: %+v", bis.Result.Best)
	}
	want := -1
	for i := range grid.Result.Points {
		if v, ok := grid.Result.Points[i].Value("blocks"); ok && v <= k {
			want = i
			break
		}
	}
	if bis.Result.Best[0].Point != want {
		t.Errorf("bisection best point %d, grid scan says %d", bis.Result.Best[0].Point, want)
	}
	// And the probed points' metrics are the grid's, bit for bit.
	for i, pr := range bis.Result.Points {
		if pr.Evaluated && !reflect.DeepEqual(pr.Metrics, grid.Result.Points[i].Metrics) {
			t.Errorf("point %d diverged between grid and bisection", i)
		}
	}
}

// TestExploreSharesCellsWithRuns pins dedup across resource kinds: an
// exploration whose preset points match an earlier plain run's cells
// attaches them from the cache.
func TestExploreSharesCellsWithRuns(t *testing.T) {
	_, c := newTestService(t, Config{})
	ctx := context.Background()
	if _, err := c.Run(ctx, RunRequest{Spec: json.RawMessage(fastSpec)}); err != nil {
		t.Fatal(err)
	}
	m0, _ := c.Metrics(ctx)
	st, err := c.Explore(ctx, &explore.Space{
		Spec:    exploreBase(),
		Presets: []string{"770 µF", "REACT"}, // exactly the run's buffer set
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.CachedCells != 2 || st.NewCells != 0 {
		t.Errorf("exploration should have been served from the run's cells: %+v", st)
	}
	m1, _ := c.Metrics(ctx)
	if m1.SimsCompleted != m0.SimsCompleted || m1.CellHits != m0.CellHits+2 {
		t.Errorf("cache counters wrong: sims %d->%d hits %d->%d",
			m0.SimsCompleted, m1.SimsCompleted, m0.CellHits, m1.CellHits)
	}
}

// TestExploreCancel pins cancellation mid-flight: the exploration reports
// canceled, publishes no result, and drains its queue.
func TestExploreCancel(t *testing.T) {
	srv, c := newTestService(t, Config{Workers: 1})
	ctx := context.Background()
	started := make(chan int, 4)
	release := make(chan struct{})
	unblock := mustUnblock(t, release)
	blocker := srv.Submit(blockerSpec(started, release), scenario.RunOptions{})
	<-started

	re, err := c.ExploreAsync(ctx, &explore.Space{
		Spec:    exploreBase(),
		Static:  &explore.StaticAxis{From: 500e-6, To: 5e-3, Points: 4},
		Presets: []string{"REACT"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Cancel(ctx); err != nil {
		t.Fatal(err)
	}
	unblock()
	final, err := re.Wait(ctx)
	if err == nil || final.Status != StatusCanceled {
		t.Fatalf("want a canceled exploration, got status %q err %v", final.Status, err)
	}
	if final.Result != nil {
		t.Error("a cancelled exploration must not publish a result")
	}
	// The released blocker finishes on its own schedule; wait for it so
	// the depth below counts only what the cancelled exploration left.
	if _, err := (&RemoteRun{c: c, ID: blocker.ID}).Wait(ctx); err != nil {
		t.Fatal(err)
	}
	m, _ := c.Metrics(ctx)
	if m.QueueDepth != 0 {
		t.Errorf("queue depth %d after a cancelled exploration drained, want 0", m.QueueDepth)
	}
}

// TestExploreSubmitRejections covers the synchronous 400s: malformed JSON,
// unknown fields, and unresolvable spaces.
func TestExploreSubmitRejections(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	for label, body := range map[string]string{
		"malformed":        `{"scenario":`,
		"unknown field":    `{"scenario":"energy-attack","presets":["REACT"],"statik":{}}`,
		"no buffer axis":   `{"scenario":"energy-attack"}`,
		"unknown scenario": `{"scenario":"warp","presets":["REACT"]}`,
		"bisect sans goal": `{"scenario":"energy-attack","static":{"from":1e-4,"to":1e-2,"points":4},"strategy":"bisect"}`,
	} {
		resp, err := http.Post(ts.URL+"/explorations", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", label, resp.StatusCode)
		}
	}
	// And nothing half-tracked: no exploration id was allocated.
	resp, err := http.Get(ts.URL + "/explorations/x000001")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("rejected submissions must not be tracked (got HTTP %d)", resp.StatusCode)
	}
}

// TestExploreMLSegmentsBisectZeroNewSims is the checkpoint-axis acceptance
// pin: a joint sweep of the ML partition count (a /workload/segments patch)
// and buffer capacitance on a checkpoint-bearing device, followed by a
// bisection over the same lattice — the bisection must touch only cached
// cells: zero new simulations, cell hits rise, misses stay put.
func TestExploreMLSegmentsBisectZeroNewSims(t *testing.T) {
	_, c := newTestService(t, Config{})
	ctx := context.Background()
	base := exploreBase()
	base.Workload = scenario.WorkloadSpec{Bench: "ML"}
	base.Device.Checkpoint = &ckpt.Config{Scheme: "periodic", Interval: 2}
	axis := &explore.StaticAxis{From: 500e-6, To: 10e-3, Points: 6}
	segs := explore.PatchAxis{Path: "/workload/segments", Values: []float64{2, 4}}

	grid, err := c.Explore(ctx, &explore.Space{
		Spec: base, Static: axis, Patches: []explore.PatchAxis{segs}, Seeds: []uint64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if grid.Result == nil || grid.Result.Evaluated != 12 {
		t.Fatalf("grid did not evaluate segments × capacitance: %+v", grid.Result)
	}
	// First-boot latency rises monotonically with capacitance and ignores
	// the partition count, so "latency ≥ k" is the rising predicate
	// bisection assumes; k between two interior lattice points forces real
	// midpoint probes in both segment groups.
	l2, _ := grid.Result.Points[2].Value("latency")
	l3, _ := grid.Result.Points[3].Value("latency")
	if !(l2 < l3) {
		t.Fatalf("latency not rising across the lattice (%g, %g)", l2, l3)
	}
	k := (l2 + l3) / 2
	m0, _ := c.Metrics(ctx)

	bis, err := c.Explore(ctx, &explore.Space{
		Spec: base, Static: axis, Patches: []explore.PatchAxis{segs}, Seeds: []uint64{1},
		Strategy: explore.StrategyBisect,
		Target:   &explore.Target{Metric: "latency", Min: &k},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bis.NewCells != 0 || bis.CachedCells != len(bis.Cells) {
		t.Errorf("bisection attached fresh cells: %d new, %d cached of %d",
			bis.NewCells, bis.CachedCells, len(bis.Cells))
	}
	m1, _ := c.Metrics(ctx)
	if m1.CellMisses != m0.CellMisses || m1.SimsCompleted != m0.SimsCompleted {
		t.Errorf("bisection re-simulated covered cells: misses %d -> %d, sims %d -> %d",
			m0.CellMisses, m1.CellMisses, m0.SimsCompleted, m1.SimsCompleted)
	}
	if m1.CellHits <= m0.CellHits {
		t.Errorf("cell hits did not rise (%d -> %d)", m0.CellHits, m1.CellHits)
	}
	// One best point per segments group, each agreeing with a grid scan.
	if len(bis.Result.Best) != 2 {
		t.Fatalf("want one bisection answer per segments value, got %+v", bis.Result.Best)
	}
	for _, b := range bis.Result.Best {
		if !b.Satisfied {
			t.Errorf("bisection found no satisfying point in a group: %+v", b)
			continue
		}
		if v, ok := bis.Result.Points[b.Point].Value("latency"); !ok || v < k {
			t.Errorf("best point %d does not meet latency >= %g", b.Point, k)
		}
	}
	// The scheme ran: every evaluated cell carries checkpoint counters.
	for i, pr := range grid.Result.Points {
		if pr.Evaluated {
			if _, ok := pr.Value("ckpt_backups"); !ok {
				t.Errorf("point %d missing ckpt_backups: the scheme never reached the device", i)
			}
		}
	}
}
