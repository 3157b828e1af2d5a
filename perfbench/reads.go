package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"react/internal/explore"
	"react/internal/obs"
	"react/internal/runner"
	"react/internal/scenario"
	"react/internal/service"
)

// The reactd-reads working set: readSeeds runs of readScenario at a 5 ms
// step (96 cells), plus readExplorations small explorations over them. The
// node's caches are set below the working set so a share of cell reads
// promote from the disk tier.
const (
	readScenario      = "tiny-cap-degraded"
	readDT            = 5e-3
	readSeeds         = 32
	readSweepWidth    = 4
	readExplorations  = 4
	readCacheRuns     = 4
	readCacheCells    = 48
	readSetups        = 5
	readSegment       = 2 * time.Second // closed-loop passes, then the open loop
	readPassShare     = 0.25            // of each segment spent on closed-loop passes
	readSenders       = 2
	readScrapePeriod  = time.Second
	readTraceSampling = 4 // fetch the span tree of every 4th run read in traced passes
)

// readSet is the warmed working set and the bits each address returned
// when it was simulated.
type readSet struct {
	spec   *scenario.Spec
	seeds  []uint64
	spaces []*explore.Space
	bits   map[string]cellBits // buffer/seed or x<k>/point/seed → bits
	cellS  map[string]float64  // same keys → simulated duration
}

func newReadSet(e *env) (*readSet, error) {
	sp, ok := scenario.Lookup(readScenario)
	if !ok {
		return nil, fmt.Errorf("scenario %q not registered", readScenario)
	}
	rs := &readSet{spec: sp, bits: map[string]cellBits{}, cellS: map[string]float64{}}
	for j := 0; j < readSeeds; j++ {
		rs.seeds = append(rs.seeds, e.seed*1000+uint64(j)+1)
	}
	for k := 0; k < readExplorations; k++ {
		rs.spaces = append(rs.spaces, &explore.Space{
			Scenario: readScenario,
			Static:   &explore.StaticAxis{From: 220e-6 * float64(k+1), To: 2.2e-3 * float64(k+1), Points: 2},
			DTs:      []float64{readDT},
			Seeds:    []uint64{rs.seeds[k]},
		})
	}
	return rs, nil
}

// warm simulates the working set through the node: one sweep over every
// seed and each exploration once.
func (rs *readSet) warm(ctx context.Context, c *service.Client) error {
	st, err := c.Sweep(ctx, service.SweepRequest{Scenario: readScenario, Seeds: rs.seeds, DTs: []float64{readDT}})
	if err != nil {
		return fmt.Errorf("warming sweep: %w", err)
	}
	for _, cs := range st.Cells {
		if cs.Result == nil {
			return fmt.Errorf("warming sweep: %s seed %d: no result %s", cs.Buffer, cs.Seed, cs.Error)
		}
		key := fmt.Sprintf("%s/%d", cs.Buffer, cs.Seed)
		rs.bits[key] = bitsOf(cs.Result)
		rs.cellS[key] = cs.Result.Duration
	}
	for k, sp := range rs.spaces {
		xs, err := c.Explore(ctx, sp)
		if err != nil {
			return fmt.Errorf("warming exploration %d: %w", k, err)
		}
		for _, cs := range xs.Cells {
			if cs.Result == nil {
				return fmt.Errorf("warming exploration %d: point %d: no result %s", k, cs.Point, cs.Error)
			}
			key := fmt.Sprintf("x%d/%d/%d", k, cs.Point, cs.Seed)
			rs.bits[key] = bitsOf(cs.Result)
			rs.cellS[key] = cs.Result.Duration
		}
	}
	return nil
}

// verify re-simulates every warmed run in-process and requires the bits
// reactd returned to be equal.
func (rs *readSet) verify(ctx context.Context) error {
	return (&runner.Runner{Workers: 2}).Do(ctx, len(rs.seeds), func(_ context.Context, j int) error {
		var items []scenario.BatchItem
		for i := range rs.spec.Buffers {
			items = append(items, scenario.BatchItem{Spec: rs.spec, Buffer: i})
		}
		res, err := scenario.RunBatch(items, scenario.RunOptions{Seed: rs.seeds[j], DT: readDT}, nil)
		if err != nil {
			return err
		}
		for i, b := range rs.spec.Buffers {
			if simBits(res[i]) != rs.bits[fmt.Sprintf("%s/%d", b.DisplayName(), rs.seeds[j])] {
				return fmt.Errorf("%s seed %d %s: reactd result differs from in-process scenario.RunBatch", readScenario, rs.seeds[j], b.DisplayName())
			}
		}
		return nil
	})
}

// readRun reads one warmed run and checks its bits.
func (rs *readSet) readRun(ctx context.Context, c *service.Client, seed uint64) (*service.RemoteRun, error) {
	h, err := c.RunAsync(ctx, service.RunRequest{Scenario: readScenario, Seed: seed, DT: readDT})
	if err != nil {
		return nil, err
	}
	st, err := h.Wait(ctx)
	if err != nil {
		return nil, err
	}
	for _, cs := range st.Cells {
		key := fmt.Sprintf("%s/%d", cs.Buffer, seed)
		if want, ok := rs.bits[key]; !ok || bitsOf(cs.Result) != want {
			return nil, fmt.Errorf("read of %s: bits differ from the first read", key)
		}
	}
	if len(st.Cells) != len(rs.spec.Buffers) {
		return nil, fmt.Errorf("read of seed %d: %d cells", seed, len(st.Cells))
	}
	return h, nil
}

func (rs *readSet) readSweep(ctx context.Context, c *service.Client, seeds []uint64) error {
	st, err := c.Sweep(ctx, service.SweepRequest{Scenario: readScenario, Seeds: seeds, DTs: []float64{readDT}})
	if err != nil {
		return err
	}
	for _, cs := range st.Cells {
		key := fmt.Sprintf("%s/%d", cs.Buffer, cs.Seed)
		if want, ok := rs.bits[key]; !ok || bitsOf(cs.Result) != want {
			return fmt.Errorf("sweep read of %s: bits differ from the first read", key)
		}
	}
	if len(st.Cells) != len(seeds)*len(rs.spec.Buffers) {
		return fmt.Errorf("sweep read: %d cells", len(st.Cells))
	}
	return nil
}

func (rs *readSet) readExplore(ctx context.Context, c *service.Client, k int) error {
	xs, err := c.Explore(ctx, rs.spaces[k])
	if err != nil {
		return err
	}
	for _, cs := range xs.Cells {
		key := fmt.Sprintf("x%d/%d/%d", k, cs.Point, cs.Seed)
		if want, ok := rs.bits[key]; !ok || bitsOf(cs.Result) != want {
			return fmt.Errorf("exploration read of %s: bits differ from the first read", key)
		}
	}
	if xs.Result == nil || len(xs.Cells) != 2 {
		return fmt.Errorf("exploration read %d: incomplete", k)
	}
	return nil
}

// passSimS is the simulated cell-seconds one read-back pass delivers.
func passSimS(rs *readSet) float64 {
	total := 0.0
	for key, d := range rs.cellS {
		if key[0] == 'x' {
			total += d // once, by its exploration
		} else {
			total += 2 * d // once by its run, once by its sweep window
		}
	}
	return total
}

// readPass is one closed-loop read-back of the whole working set.
type readPass struct {
	wall                float64
	run, sweep, explore []float64
	traced              bool
	runs                []*service.RemoteRun
	clientSpans         []*obs.ActiveSpan
}

func (rs *readSet) pass(ctx context.Context, e *env, r *report, c *service.Client) *readPass {
	p := &readPass{traced: e.tr.enabled()}
	t0 := time.Now()
	for _, seed := range rs.seeds {
		id := e.tr.start(nil, "client.run")
		s := time.Now()
		h, err := rs.readRun(ctx, c, seed)
		p.run = append(p.run, time.Since(s).Seconds())
		id.End(nil)
		r.op(err)
		if h != nil {
			p.runs = append(p.runs, h)
			p.clientSpans = append(p.clientSpans, id)
		}
	}
	for w := 0; w+readSweepWidth <= len(rs.seeds); w += readSweepWidth {
		id := e.tr.start(nil, "client.sweep")
		s := time.Now()
		err := rs.readSweep(ctx, c, rs.seeds[w:w+readSweepWidth])
		p.sweep = append(p.sweep, time.Since(s).Seconds())
		id.End(nil)
		r.op(err)
	}
	for k := range rs.spaces {
		id := e.tr.start(nil, "client.explore")
		s := time.Now()
		err := rs.readExplore(ctx, c, k)
		p.explore = append(p.explore, time.Since(s).Seconds())
		id.End(nil)
		r.op(err)
	}
	p.wall = time.Since(t0).Seconds()
	return p
}

// openLoop is the open-loop reader's outcome.
type openLoop struct {
	lat     []float64 // ms, from when each read was due (or sent, see runOpenLoop)
	lag     []float64 // ms, timer lateness of reads sent by an idle sender
	failed  int
	reads   int
	scrapes []float64 // ms
	promote float64   // disk-tier promotions during the open loop
}

// runOpenLoop sends reads of random warmed runs at a fixed rate for d and
// adds them to ol, with a 1 Hz /metrics scrape alongside.
func (rs *readSet) runOpenLoop(ctx context.Context, e *env, r *report, c *service.Client, url string, d time.Duration, rng *rand.Rand, ol *openLoop) error {
	before, _, err := scrape(ctx, url)
	if err != nil {
		return err
	}
	rate := e.man.ReadRatePerS
	n := int(d.Seconds() * rate)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = rs.seeds[rng.IntN(len(rs.seeds))]
	}
	ol.reads += n
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	interval := time.Duration(float64(time.Second) / rate)
	// Sender k owns reads k, k+S, k+2S, ...: it sleeps until each read is
	// due and sends it then, or at once when its previous read overran.
	// A read held back by an overrun is timed from when it was due, so a
	// stall counts against every read it delays; a read whose sender was
	// idle is timed from when it was sent, because the gap between due and
	// sent is then the generator's own timer lateness (reported as lag).
	for k := 0; k < readSenders; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prevDone time.Time
			for i := k; i < n; i += readSenders {
				due := start.Add(time.Duration(i) * interval)
				time.Sleep(time.Until(due))
				sent := time.Now()
				from := sent
				if prevDone.After(due) {
					from = due
				}
				_, err := rs.readRun(ctx, c, seeds[i])
				done := time.Now()
				prevDone = done
				mu.Lock()
				if from.Equal(sent) {
					ol.lag = append(ol.lag, sent.Sub(due).Seconds()*1e3)
				}
				if err != nil {
					ol.failed++
				} else {
					ol.lat = append(ol.lat, done.Sub(from).Seconds()*1e3)
				}
				mu.Unlock()
				r.op(err)
			}
		}()
	}
	stop := make(chan struct{})
	var swg sync.WaitGroup
	swg.Add(1)
	go func() {
		defer swg.Done()
		tick := time.NewTicker(readScrapePeriod)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				_, took, err := scrape(ctx, url)
				r.op(err)
				mu.Lock()
				ol.scrapes = append(ol.scrapes, took.Seconds()*1e3)
				mu.Unlock()
			}
		}
	}()
	wg.Wait()
	close(stop)
	swg.Wait()
	after, _, err := scrape(ctx, url)
	if err != nil {
		return err
	}
	ol.promote += after["react_disk_hits_total"] - before["react_disk_hits_total"]
	return nil
}

func bootReads(e *env, rs *readSet) ([]*node, *service.Client, error) {
	nodes, err := bootNodes(e, 1, func(int, []string) service.Config {
		return service.Config{Workers: 2, CacheRuns: readCacheRuns, CacheCells: readCacheCells}
	})
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	c, err := service.DialContext(ctx, nodes[0].url)
	if err == nil {
		err = rs.warm(ctx, c)
	}
	if err != nil {
		closeNodes(nodes)
		return nil, nil, err
	}
	return nodes, c, nil
}

func runReads(e *env, r *report) error {
	ctx := context.Background()
	var setups []float64
	var nodes []*node
	var client *service.Client
	var rs *readSet
	for i := 0; i < readSetups; i++ {
		if nodes != nil {
			closeNodes(nodes)
		}
		runtime.GC() // every set-up starts from the same heap state
		t0 := time.Now()
		var err error
		if rs, err = newReadSet(e); err != nil {
			return err
		}
		if nodes, client, err = bootReads(e, rs); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { closeNodes(nodes) }()
	r.set("setup_s", median(setups), "s", len(setups), "boot a node with a disk store and simulate the 104-cell working set")
	if err := rs.verify(ctx); err != nil {
		r.fail("%v", err)
	}

	before, err := scrapeAll(ctx, nodes)
	if err != nil {
		return err
	}
	stopProfile, err := e.startProfile()
	if err != nil {
		return err
	}
	defer stopProfile()
	// The measured phase is a train of segments, each closed-loop passes
	// followed by the open loop, so both kinds of sample spread over the
	// whole run rather than over one stretch of a shared machine's speed.
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	passTime := time.Duration(readPassShare * float64(readSegment))
	rng := rand.New(rand.NewPCG(e.seed, 0x5eed))
	ol := &openLoop{}
	var passes []*readPass
	var spansUS []float64
	g0 := readGoStats()
	for i := 0; len(passes) == 0 || time.Now().Before(deadline); {
		passEnd := time.Now().Add(passTime)
		for ; time.Now().Before(passEnd); i++ {
			e.tr.setOn(e.traced && i%2 == 1)
			p := rs.pass(ctx, e, r, client)
			e.tr.setOn(false)
			passes = append(passes, p)
			if p.traced {
				// Fetch now: the node's span store keeps only recent traces.
				us, err := mergeReadTraces(ctx, e, nodes, p)
				if err != nil {
					return err
				}
				spansUS = append(spansUS, us...)
			}
		}
		if err := rs.runOpenLoop(ctx, e, r, client, nodes[0].url, readSegment-passTime, rng, ol); err != nil {
			return err
		}
	}
	g1 := readGoStats()
	after, err := scrapeAll(ctx, nodes)
	if err != nil {
		return err
	}
	stopProfile()

	// Workload-shape guards: reads never simulate, and the disk tier
	// serves a share of cell reads inside the manifest's band.
	if s := after.delta(before, "react_sims_completed_total"); s != 0 {
		r.fail("reactd-reads: %g simulations during the read phase, want 0", s)
	}
	promote := ol.promote / float64(len(rs.spec.Buffers)*ol.reads)
	if band := e.man.PromoteBand; promote < band[0] || promote > band[1] {
		r.fail("reactd-reads: promote share %.3f outside the band [%g, %g]", promote, band[0], band[1])
	}
	if d := after["react_dropped_spans"]; d != 0 {
		r.fail("reactd-reads: %g dropped spans", d)
	}

	var runs, sweeps, explores, untraced, traced []float64
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p.wall)
			continue
		}
		untraced = append(untraced, p.wall)
		runs = append(runs, p.run...)
		sweeps = append(sweeps, p.sweep...)
		explores = append(explores, p.explore...)
	}
	// A pass's own wall is a sum of 44 reads, so every garbage-collection
	// cycle and scheduling stall that lands in it adds up; on a small shared
	// machine that made it vary by a third between runs. The read-back time
	// is therefore each request kind's median times its count per pass.
	runP50, sweepP50, exploreP50 := median(runs), median(sweeps), median(explores)
	wall := float64(len(rs.seeds))*runP50 + float64(len(rs.seeds)/readSweepWidth)*sweepP50 + float64(len(rs.spaces))*exploreP50
	r.set("wall_s", wall, "s", len(untraced), "read-back of the working set at the median latency of each request kind")
	r.set("sim_s_per_host_s", passSimS(rs)/wall, "s/s", len(untraced), "cached cell-seconds delivered per host second of read-back")
	r.set("run_p50_s", runP50, "s", len(runs), "cached run read")
	r.set("sweep_p50_s", sweepP50, "s", len(sweeps), "cached 4-seed sweep read")
	r.set("explore_p50_s", exploreP50, "s", len(explores), "cached exploration read")
	setHits(r, e, ol.lat, ol.failed, fmt.Sprintf("open loop at %g/s", e.man.ReadRatePerS))

	if !e.traced {
		return nil
	}
	reportServiceCounters(r, before, after)
	r.set("store.promote_share", promote, "share", ol.reads, "disk promotions per cell read, open loop")
	r.set("service.hit_span_us", median(spansUS), "us", len(spansUS), "root span of a cached run read")
	r.set("obs.scrape_ms", median(ol.scrapes), "ms", len(ol.scrapes), "GET /metrics at 1 Hz")
	reads := ol.reads + len(passes)*(len(rs.seeds)+len(rs.seeds)/readSweepWidth+len(rs.spaces))
	r.set("go.allocs_per_read", float64(g1.mallocs-g0.mallocs)/float64(reads), "count", reads, "node and client")
	r.set("go.gc_cpu_share", gcShare(g0, g1), "share", 0, "")
	lag50 := median(ol.lag)
	lag99, q := tailQuantile(ol.lag, 0.99)
	r.set("bench.gen_lag_p50_ms", lag50, "ms", len(ol.lag), "")
	r.set("bench.gen_lag_p99_ms", lag99, "ms", len(ol.lag), fmt.Sprintf("p%.4g", 100*q))
	r.set("bench.trace_overhead_pct", overheadPct(untraced, traced), "%", len(traced), "traced vs untraced pass wall")
	reportSelf(r, e.tr, len(traced))
	return runLadder(e, r)
}

// mergeReadTraces merges reactd's span trees of a sample of a traced
// pass's run reads and returns their root-span durations in microseconds.
func mergeReadTraces(ctx context.Context, e *env, nodes []*node, p *readPass) ([]float64, error) {
	var us []float64
	for i := 0; i < len(p.runs); i += readTraceSampling {
		roots, err := fetchTrace(ctx, nodes, p.runs[i].Submitted.TraceID)
		if err != nil {
			return nil, fmt.Errorf("trace of run %s: %w", p.runs[i].ID, err)
		}
		for _, root := range roots {
			if root.Name == "run" && root.EndUnixNs > 0 {
				us = append(us, float64(root.EndUnixNs-root.StartUnixNs)/1e3)
			}
		}
		e.tr.addRemote(p.clientSpans[i], roots)
	}
	return us, nil
}
