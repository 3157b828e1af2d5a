package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"react/internal/explore"
	"react/internal/obs"
	"react/internal/runner"
	"react/internal/scenario"
	"react/internal/service"
	"react/internal/sim"
)

// coldScenarios are the registered scenarios reactd-cold submits: they
// reach the dead-time, checkpoint, Dewdrop, Capybara and 5 ms-dt physics
// the paper grid never does.
var coldScenarios = []string{"cold-start", "energy-attack", "night-heavy-solar", "ckpt-odab-de", "ckpt-periodic-mix", "tiny-cap-degraded"}

// coldRepeats is how many times the client re-reads each finished run:
// once, the one POST /runs of re-running `reactsim -remote -scenario <name>
// -seed <n>`. These reads are the workload's hits. One is the least read
// traffic that yields the hit metrics; it stands in for a user mix that
// has not been measured.
const coldRepeats = 1

// coldView is one submission of a round and what it returned.
type coldView struct {
	kind     string // run, sweep or explore
	spec     *scenario.Spec
	seeds    []uint64
	buffers  []string
	space    *explore.Space
	latency  float64 // submit to Client.Wait returning
	terminal float64 // submit to the server marking the view terminal
	viewS    float64
	polls    int64
	cells    map[string]cellBits // (buffer or point, seed) → result bits
	simS     float64
	id       string
	client   *obs.ActiveSpan // benchmark span around the client call
	traceID  string
}

func (v *coldView) ncells() int {
	if v.kind == "explore" {
		return 2 * len(v.seeds)
	}
	return len(v.buffers) * len(v.seeds)
}

type coldRound struct {
	views  []*coldView
	hits   []float64
	traced bool
}

// coldSeed gives every (round, slot) pair its own seeds, disjoint across
// rounds, slots and workload seeds, so no cell repeats.
func coldSeed(seed uint64, round, slot int) uint64 {
	return seed*1_000_000 + uint64(round)*16 + uint64(slot) + 1
}

func coldRoundViews(e *env, round int) ([]*coldView, error) {
	var views []*coldView
	for _, name := range coldScenarios {
		sp, ok := scenario.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("scenario %q not registered", name)
		}
		var all []string
		for _, b := range sp.Buffers {
			all = append(all, b.DisplayName())
		}
		views = append(views,
			&coldView{kind: "run", spec: sp, seeds: []uint64{coldSeed(e.seed, round, 0)}, buffers: all},
			&coldView{kind: "sweep", spec: sp, seeds: []uint64{coldSeed(e.seed, round, 1), coldSeed(e.seed, round, 2)}, buffers: all[:2]},
			&coldView{kind: "explore", spec: sp, seeds: []uint64{coldSeed(e.seed, round, 3)}, space: &explore.Space{
				Scenario: name,
				Static:   &explore.StaticAxis{From: 470e-6, To: 4.7e-3, Points: 2},
				Seeds:    []uint64{coldSeed(e.seed, round, 3)},
			}})
	}
	return views, nil
}

func bootCold(e *env) ([]*node, *service.Client, error) {
	nodes, err := bootNodes(e, 2, func(i int, urls []string) service.Config {
		return service.Config{Workers: 1, Self: urls[i], Peers: urls}
	})
	if err != nil {
		return nil, nil, err
	}
	c, err := service.DialContext(context.Background(), nodes[0].url)
	if err != nil {
		closeNodes(nodes)
		return nil, nil, err
	}
	return nodes, c, nil
}

// submitCold sends one view through the client and waits for it.
func submitCold(ctx context.Context, e *env, r *report, c *service.Client, a *node, v *coldView) {
	v.cells = map[string]cellBits{}
	v.client = e.tr.start(nil, "client."+v.kind)
	polls := a.polls.Load()
	t0 := time.Now()
	var created time.Time
	var finished *time.Time
	var err error
	switch v.kind {
	case "run":
		var h *service.RemoteRun
		var st *service.RunStatus
		if h, err = c.RunAsync(ctx, service.RunRequest{Scenario: v.spec.Name, Seed: v.seeds[0]}); err == nil {
			st, err = h.Wait(ctx)
		}
		if err == nil {
			created, finished, v.id, v.traceID = st.Created, st.Finished, st.ID, st.TraceID
			for _, cs := range st.Cells {
				v.cells[fmt.Sprintf("%s/%d", cs.Buffer, st.Seed)] = bitsOf(cs.Result)
				err = cellErr(e, cs.Result, cs.Error, v.spec.Name+"/"+cs.Buffer, err)
				if cs.Result != nil {
					v.simS += cs.Result.Duration
				}
			}
		}
	case "sweep":
		var h *service.RemoteSweep
		var st *service.SweepStatus
		if h, err = c.SweepAsync(ctx, service.SweepRequest{Scenario: v.spec.Name, Seeds: v.seeds, Buffers: v.buffers}); err == nil {
			st, err = h.Wait(ctx)
		}
		if err == nil {
			created, finished, v.id, v.traceID = st.Created, st.Finished, st.ID, st.TraceID
			for _, cs := range st.Cells {
				v.cells[fmt.Sprintf("%s/%d", cs.Buffer, cs.Seed)] = bitsOf(cs.Result)
				err = cellErr(e, cs.Result, cs.Error, v.spec.Name+"/"+cs.Buffer, err)
				if cs.Result != nil {
					v.simS += cs.Result.Duration
				}
			}
		}
	case "explore":
		var h *service.RemoteExploration
		var st *service.ExploreStatus
		if h, err = c.ExploreAsync(ctx, v.space); err == nil {
			st, err = h.Wait(ctx)
		}
		if err == nil {
			created, finished, v.id, v.traceID = st.Created, st.Finished, st.ID, st.TraceID
			if st.Result == nil {
				err = fmt.Errorf("exploration %s finished without a result", st.ID)
			}
			for _, cs := range st.Cells {
				v.cells[fmt.Sprintf("%d/%d", cs.Point, cs.Seed)] = bitsOf(cs.Result)
				err = cellErr(e, cs.Result, cs.Error, v.spec.Name+"/"+cs.Buffer, err)
				if cs.Result != nil {
					v.simS += cs.Result.Duration
				}
			}
		}
	}
	v.latency = time.Since(t0).Seconds()
	v.client.End(nil)
	v.polls = a.polls.Load() - polls
	if err == nil && finished != nil {
		// The nodes share the client's clock, so the server's Finished
		// stamp dates the terminal instant the client could first see.
		v.terminal = finished.Sub(t0).Seconds()
		v.viewS = finished.Sub(created).Seconds()
	}
	if err == nil && len(v.cells) != v.ncells() {
		err = fmt.Errorf("%s %s: %d cells, want %d", v.kind, v.spec.Name, len(v.cells), v.ncells())
	}
	r.op(err)
}

// cellErr checks one returned cell and keeps the first error.
func cellErr(e *env, res *service.CellResult, msg, label string, prev error) error {
	if prev != nil {
		return prev
	}
	switch {
	case msg != "":
		return fmt.Errorf("%s: %s", label, msg)
	case res == nil:
		return fmt.Errorf("%s: no result", label)
	case !(res.BalanceError <= e.man.BalanceTolerance):
		return fmt.Errorf("%s: energy balance error %g", label, res.BalanceError)
	}
	return nil
}

// repeatReads re-submits a finished run and checks every repeat returns
// the first read's bits; it returns the latencies in milliseconds.
func repeatReads(ctx context.Context, r *report, c *service.Client, v *coldView) []float64 {
	var lat []float64
	for i := 0; i < coldRepeats; i++ {
		t0 := time.Now()
		st, err := c.Run(ctx, service.RunRequest{Scenario: v.spec.Name, Seed: v.seeds[0]})
		d := time.Since(t0).Seconds() * 1e3
		if err == nil {
			if !st.Cached {
				err = fmt.Errorf("repeat of %s seed %d was not a cache hit", v.spec.Name, v.seeds[0])
			}
			for _, cs := range st.Cells {
				if err == nil && bitsOf(cs.Result) != v.cells[fmt.Sprintf("%s/%d", cs.Buffer, st.Seed)] {
					err = fmt.Errorf("repeat of %s seed %d: %s returned different bits", v.spec.Name, v.seeds[0], cs.Buffer)
				}
			}
		}
		r.op(err)
		if err == nil {
			lat = append(lat, d)
		}
	}
	return lat
}

// verifyCold re-simulates a view's cells in-process with scenario.RunBatch
// and requires reactd's results to be bit-equal.
func verifyCold(ctx context.Context, v *coldView) error {
	want := map[string]cellBits{}
	switch v.kind {
	case "run", "sweep":
		for _, seed := range v.seeds {
			var items []scenario.BatchItem
			for i, b := range v.spec.Buffers {
				for _, name := range v.buffers {
					if b.DisplayName() == name {
						items = append(items, scenario.BatchItem{Spec: v.spec, Buffer: i})
					}
				}
			}
			res, err := scenario.RunBatch(items, scenario.RunOptions{Seed: seed}, nil)
			if err != nil {
				return err
			}
			for i, it := range items {
				want[fmt.Sprintf("%s/%d", v.spec.Buffers[it.Buffer].DisplayName(), seed)] = simBits(res[i])
			}
		}
	case "explore":
		_, err := explore.Run(ctx, v.space, func(_ context.Context, cells []explore.Cell) ([]sim.Result, error) {
			out := make([]sim.Result, len(cells))
			for i, ec := range cells {
				res, err := scenario.RunBatch([]scenario.BatchItem{{Spec: ec.Spec, Buffer: 0}}, ec.Opt, nil)
				if err != nil {
					return nil, err
				}
				out[i] = res[0]
				want[fmt.Sprintf("%d/%d", ec.Point, ec.Seed)] = simBits(res[0])
			}
			return out, nil
		})
		if err != nil {
			return err
		}
	}
	if len(want) != len(v.cells) {
		return fmt.Errorf("%s %s: in-process run has %d cells, reactd returned %d", v.kind, v.spec.Name, len(want), len(v.cells))
	}
	for k, w := range want {
		if v.cells[k] != w {
			return fmt.Errorf("%s %s cell %s: reactd result differs from in-process scenario.RunBatch", v.kind, v.spec.Name, k)
		}
	}
	return nil
}

func runCold(e *env, r *report) error {
	ctx := context.Background()
	var setups []float64
	var nodes []*node
	var client *service.Client
	for i := 0; i < quickSetups; i++ {
		if nodes != nil {
			closeNodes(nodes)
		}
		runtime.GC() // every boot starts from the same heap state
		t0 := time.Now()
		var err error
		if nodes, client, err = bootCold(e); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { closeNodes(nodes) }()
	r.set("setup_s", median(setups), "s", len(setups), "boot a 2-node ring with disk stores and dial it")

	before, err := scrapeAll(ctx, nodes)
	if err != nil {
		return err
	}
	stopProfile, err := e.startProfile()
	if err != nil {
		return err
	}
	defer stopProfile()
	g0 := readGoStats()
	var rounds []*coldRound
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for i := 0; len(rounds) < 2 || time.Now().Before(deadline); i++ {
		views, err := coldRoundViews(e, i)
		if err != nil {
			return err
		}
		rd := &coldRound{views: views, traced: e.traced && i%2 == 1}
		e.tr.setOn(rd.traced)
		for _, v := range views {
			submitCold(ctx, e, r, client, nodes[0], v)
			if v.kind == "run" && v.cells != nil {
				rd.hits = append(rd.hits, repeatReads(ctx, r, client, v)...)
			}
		}
		e.tr.setOn(false)
		rounds = append(rounds, rd)
		if rd.traced {
			// Fetch now: the nodes' span stores keep only recent traces.
			if err := mergeViewTraces(ctx, e, nodes, rd); err != nil {
				return err
			}
		}
	}
	g1 := readGoStats()
	stopProfile()
	after, err := scrapeAll(ctx, nodes)
	if err != nil {
		return err
	}

	// Bit-equality with in-process runs, one scenario per round in
	// rotation, over a pool as wide as the ring.
	var checks []*coldView
	for i, rd := range rounds {
		k := i % len(coldScenarios)
		checks = append(checks, rd.views[3*k:3*k+3]...)
	}
	verr := (&runner.Runner{Workers: 2}).Do(ctx, len(checks), func(ctx context.Context, i int) error {
		return verifyCold(ctx, checks[i])
	})
	if verr != nil {
		r.fail("%v", verr)
	}

	// Workload-shape guards: cold means no cell is ever served from cache,
	// peers answer part of the work, and every submitted cell simulates
	// exactly once.
	submitted := 0
	for _, rd := range rounds {
		for _, v := range rd.views {
			submitted += v.ncells()
		}
	}
	if h := after.delta(before, "react_cell_hits_total"); h != 0 {
		r.fail("reactd-cold: %g cell cache hits, want 0", h)
	}
	if pc := after.delta(before, "react_peer_cells_total"); pc <= 0 {
		r.fail("reactd-cold: no cell was answered by a peer")
	}
	if s := after.delta(before, "react_sims_completed_total"); s != float64(submitted) {
		r.fail("reactd-cold: %g simulations for %d submitted cells", s, submitted)
	}
	if d := after["react_dropped_spans"]; d != 0 {
		r.fail("reactd-cold: %g dropped spans", d)
	}

	// Latencies run from submit to the terminal instant, not to Wait's
	// return: Wait's poll backoff rounds a view up to its next poll, a step
	// of up to half the latency that would hide any smaller change; it is
	// reported on its own as client.poll_overhead_s. A latency sample is
	// one round, the mean over its six scenarios, so the scenario mix
	// averages out instead of the median jumping between scenarios.
	lat := map[string][]float64{}
	var walls, rates, hits, untraced, traced []float64
	var viewS, overhead, polls []float64
	for _, rd := range rounds {
		simS, busy := 0.0, 0.0
		for _, v := range rd.views {
			busy += v.terminal
			simS += v.simS
		}
		if rd.traced {
			traced = append(traced, busy)
			continue
		}
		untraced = append(untraced, busy)
		kinds := map[string][]float64{}
		for _, v := range rd.views {
			kinds[v.kind] = append(kinds[v.kind], v.terminal)
			viewS = append(viewS, v.viewS)
			overhead = append(overhead, v.latency-v.viewS)
			polls = append(polls, float64(v.polls))
		}
		for k, xs := range kinds {
			lat[k] = append(lat[k], mean(xs))
		}
		walls = append(walls, busy)
		rates = append(rates, simS/busy)
		hits = append(hits, rd.hits...)
	}
	r.set("wall_s", median(walls), "s", len(walls), "one round of 6 scenarios × (run, sweep, exploration), summed submit-to-terminal")
	r.set("sim_s_per_host_s", median(rates), "s/s", len(rates), "simulated cell-seconds per host second")
	r.set("run_p50_s", median(lat["run"]), "s", len(lat["run"]), "cold run, submit to terminal; median over rounds of the 6-scenario mean")
	r.set("sweep_p50_s", median(lat["sweep"]), "s", len(lat["sweep"]), "cold 2-seed sweep, submit to terminal; median over rounds of the 6-scenario mean")
	r.set("explore_p50_s", median(lat["explore"]), "s", len(lat["explore"]), "cold 2-point exploration, submit to terminal; median over rounds of the 6-scenario mean")
	setHits(r, e, hits, 0, "repeat read of a finished run")

	if !e.traced {
		return nil
	}
	reportServiceCounters(r, before, after)
	r.set("service.view_s", median(viewS), "s", len(viewS), "server-side Finished − Created")
	r.set("client.polls", mean(polls), "count", len(polls), "status polls per view")
	r.set("client.poll_overhead_s", median(overhead), "s", len(overhead), "client-observed minus service.view_s")
	r.set("go.allocs_per_cell", float64(g1.mallocs-g0.mallocs)/float64(submitted), "count", 0, "both nodes and the client")
	r.set("go.gc_cpu_share", gcShare(g0, g1), "share", 0, "")
	r.set("bench.trace_overhead_pct", overheadPct(untraced, traced), "%", len(traced), "traced vs untraced round, summed submit-to-terminal")
	reportSelf(r, e.tr, len(traced))
	return runLadder(e, r)
}

// mergeViewTraces fetches reactd's spans of every view of a traced round
// from both nodes and merges each tree under the benchmark's client span.
func mergeViewTraces(ctx context.Context, e *env, nodes []*node, rd *coldRound) error {
	for _, v := range rd.views {
		roots, err := fetchTrace(ctx, nodes, v.traceID)
		if err != nil {
			return fmt.Errorf("trace of %s %s: %w", v.kind, v.id, err)
		}
		e.tr.addRemote(v.client, roots)
	}
	return nil
}
