package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"react/internal/buffer"
	"react/internal/scenario"
)

// fastSpec is a small inline scenario: a 30 s steady trace driving DE on
// two buffers — milliseconds of simulation per cell.
const fastSpec = `{
	"name": "svc-fast",
	"trace": {"gen": "steady", "mean": 0.01, "duration": 30},
	"workload": {"bench": "DE"},
	"buffers": [{"preset": "770 µF"}, {"preset": "REACT"}]
}`

func newTestService(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		// ts.Close waits for every request in flight, parked long-polls
		// included: release them first.
		srv.ReleaseWaiters()
		ts.Close()
		srv.Close()
	})
	c, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return srv, c
}

func TestScenariosEndpointListsRegistry(t *testing.T) {
	_, c := newTestService(t, Config{})
	infos, err := c.Scenarios(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(scenario.Names()) {
		t.Fatalf("listed %d scenarios, registry has %d", len(infos), len(scenario.Names()))
	}
	byName := map[string]ScenarioInfo{}
	for _, info := range infos {
		byName[info.Name] = info
	}
	ea, ok := byName["energy-attack"]
	if !ok {
		t.Fatal("energy-attack missing from the listing")
	}
	if ea.Bench != "RT" || len(ea.Buffers) != 4 || !strings.HasPrefix(ea.Fingerprint, scenario.FingerprintPrefix) {
		t.Errorf("energy-attack listing wrong: %+v", ea)
	}
}

// TestLoadSmoke is the load-smoke acceptance test: N concurrent clients
// submit the identical run; the cache must collapse them into exactly one
// simulation per cell, and every client must receive the same results.
func TestLoadSmoke(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 2})
	const clients = 12
	req := RunRequest{Spec: json.RawMessage(fastSpec)}

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
		got  []*RunStatus
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := c.Run(context.Background(), req)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			got = append(got, st)
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		t.Fatalf("%d/%d clients failed, first: %v", len(errs), clients, errs[0])
	}

	// Every client saw the same run: same id, same completed cells.
	first := got[0]
	if first.Status != StatusDone || len(first.Cells) != 2 {
		t.Fatalf("unexpected final status: %+v", first)
	}
	ref, ok := first.Result("REACT")
	if !ok || ref.Metrics["blocks"] <= 0 {
		t.Fatalf("REACT cell missing a result: %+v", first.Cells)
	}
	for _, st := range got[1:] {
		if st.ID != first.ID {
			t.Errorf("clients saw different runs: %s vs %s", st.ID, first.ID)
		}
		r, ok := st.Result("REACT")
		if !ok || r.Metrics["blocks"] != ref.Metrics["blocks"] {
			t.Errorf("results diverged across clients")
		}
	}

	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.CacheMisses != 1 {
		t.Errorf("%d simulations launched for %d identical submissions, want exactly 1 (single-flight)", m.CacheMisses, clients)
	}
	if m.CacheHits+m.Coalesced != clients-1 {
		t.Errorf("hits %d + coalesced %d, want %d deduplicated submissions", m.CacheHits, m.Coalesced, clients-1)
	}
	if m.SimsCompleted != 2 {
		t.Errorf("%d cells simulated, want the spec's 2", m.SimsCompleted)
	}
	if m.QueueDepth != 0 {
		t.Errorf("queue depth %d after drain, want 0", m.QueueDepth)
	}

	// A repeat after completion is a pure cache hit served as done.
	rr, err := c.RunAsync(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Submitted.Cached || rr.Submitted.Status != StatusDone {
		t.Errorf("repeat submission not served from cache: %+v", rr.Submitted)
	}
}

func TestNamedScenarioRunAndSeedAddressing(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a full registered scenario")
	}
	_, c := newTestService(t, Config{})
	ctx := context.Background()
	st, err := c.Run(ctx, RunRequest{Scenario: "energy-attack"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Scenario != "energy-attack" || st.Seed != 1 || len(st.Cells) != 4 {
		t.Fatalf("unexpected run view: %+v", st)
	}
	// A different seed is a different content address: a fresh simulation.
	st2, err := c.Run(ctx, RunRequest{Scenario: "energy-attack", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Fingerprint == st.Fingerprint {
		t.Error("seed 2 must not share seed 1's fingerprint")
	}
	m, _ := c.Metrics(ctx)
	if m.CacheMisses != 2 || m.CacheHits != 0 {
		t.Errorf("want two independent simulations, got misses %d hits %d", m.CacheMisses, m.CacheHits)
	}
	// The explicit default seed maps onto the already-cached address.
	st3, err := c.Run(ctx, RunRequest{Scenario: "energy-attack", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st3.ID != st.ID {
		t.Error("seed 1 spelled out must hit the defaulted run's cache entry")
	}
}

func TestSubmitRejectsBadRequests(t *testing.T) {
	_, c := newTestService(t, Config{})
	ctx := context.Background()
	for label, req := range map[string]RunRequest{
		"empty":         {},
		"both":          {Scenario: "energy-attack", Spec: json.RawMessage(fastSpec)},
		"unknown":       {Scenario: "not-a-scenario"},
		"invalid spec":  {Spec: json.RawMessage(`{"name":"x"}`)},
		"negative seed": {Spec: json.RawMessage(fastSpec), DT: -1},
	} {
		if _, err := c.RunAsync(ctx, req); err == nil {
			t.Errorf("%s: submission must fail", label)
		}
	}
	if err := c.do(ctx, http.MethodGet, "/runs/r999999", nil, &RunStatus{}); err == nil {
		t.Error("polling an unknown run must 404")
	}
}

// blockingSpec returns an unfingerprintable spec whose cell i blocks inside
// its buffer constructor until released — the deterministic probe for
// cancellation and partial-result visibility. Cell 0 is a plain preset that
// completes immediately.
func blockingSpec(n int, started chan<- int, release <-chan struct{}) *scenario.Spec {
	bufs := []scenario.BufferSpec{{Preset: "770 µF"}}
	for i := 1; i < n; i++ {
		i := i
		bufs = append(bufs, scenario.BufferSpec{
			Label: fmt.Sprintf("blocker-%d", i),
			New: func() buffer.Buffer {
				started <- i
				<-release
				return buffer.NewStatic(buffer.StaticConfig{Name: fmt.Sprintf("blocker-%d", i), C: 1e-3, VMax: 3.6})
			},
		})
	}
	return &scenario.Spec{
		Name:     "svc-blocking",
		Trace:    scenario.TraceSpec{Gen: "steady", Mean: 0.01, Duration: 10},
		Workload: scenario.WorkloadSpec{Bench: "DE"},
		Buffers:  bufs,
	}
}

// mustUnblock returns an idempotent closer for a blocker's release channel
// and registers it via t.Cleanup (LIFO: it runs before newTestService's
// srv.Close), so a fatal mid-test still frees the pinned constructor
// instead of wedging the worker drain and hanging the package.
func mustUnblock(t *testing.T, release chan struct{}) func() {
	released := false
	unblock := func() {
		if !released {
			released = true
			close(release)
		}
	}
	t.Cleanup(unblock)
	return unblock
}

func TestPartialResultsVisibleWhileRunning(t *testing.T) {
	srv, c := newTestService(t, Config{Workers: 2})
	started := make(chan int, 4)
	release := make(chan struct{})
	unblock := mustUnblock(t, release)
	st := srv.Submit(blockingSpec(2, started, release), scenario.RunOptions{})
	if st.Fingerprint != "" {
		t.Fatal("a custom-constructor spec must not be content-addressed")
	}
	<-started // the blocker cell is pinned inside its constructor
	rr := &RemoteRun{c: c, ID: st.ID}
	deadline := time.After(10 * time.Second)
	for {
		poll, err := rr.Poll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res, ok := poll.Result("770 µF"); ok {
			if poll.Status != StatusRunning {
				t.Errorf("status %q while a cell still blocks, want running", poll.Status)
			}
			if res.Duration <= 0 {
				t.Error("partial result carries no data")
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("the preset cell never surfaced a partial result")
		case <-time.After(5 * time.Millisecond):
		}
	}
	unblock()
	if _, err := rr.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestCancelStopsARun(t *testing.T) {
	srv, c := newTestService(t, Config{Workers: 1})
	started := make(chan int, 8)
	release := make(chan struct{})
	unblock := mustUnblock(t, release)
	// Workers=1: a blocker holds the only slot; later cells queue.
	spec := blockingSpec(4, started, release)
	spec.Buffers[0], spec.Buffers[1] = spec.Buffers[1], spec.Buffers[0]
	st := srv.Submit(spec, scenario.RunOptions{})
	<-started // blocker pinned on the single worker

	rr := &RemoteRun{c: c, ID: st.ID}
	if err := rr.Cancel(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Wait until the queued cells have observed the cancellation (done with
	// an error, never simulated) before releasing the pinned blocker —
	// otherwise freeing the worker races the cancellation delivery.
	deadline := time.After(10 * time.Second)
	for {
		poll, err := rr.Poll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		cancelled := 0
		for _, cell := range poll.Cells {
			if cell.Done && cell.Error != "" {
				cancelled++
			}
		}
		if cancelled >= 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("queued cells never drained after cancellation")
		case <-time.After(2 * time.Millisecond):
		}
	}
	unblock()
	final, err := rr.Wait(context.Background())
	if err == nil || final.Status != StatusCanceled {
		t.Fatalf("want a canceled run, got status %q err %v", final.Status, err)
	}
	simulated := 0
	for _, cell := range final.Cells {
		if cell.Done && cell.Error == "" {
			simulated++
		}
	}
	if simulated >= len(final.Cells) {
		t.Errorf("all %d cells simulated despite cancellation", simulated)
	}
	// Cancelled cells still drain through the scheduler: the queue must
	// read empty once the run is terminal.
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.QueueDepth != 0 {
		t.Errorf("queue depth %d after a cancelled run drained, want 0", m.QueueDepth)
	}
}

func TestEvictionBoundsTheRunViews(t *testing.T) {
	_, c := newTestService(t, Config{CacheRuns: 1})
	ctx := context.Background()
	a, err := c.Run(ctx, RunRequest{Spec: json.RawMessage(fastSpec)})
	if err != nil {
		t.Fatal(err)
	}
	// A different duration is a different address; it evicts run view A.
	b := strings.Replace(fastSpec, `"duration": 30`, `"duration": 31`, 1)
	if _, err := c.Run(ctx, RunRequest{Spec: json.RawMessage(b)}); err != nil {
		t.Fatal(err)
	}
	m, _ := c.Metrics(ctx)
	if m.Evictions != 1 || m.CacheEntries != 1 {
		t.Errorf("evictions %d entries %d, want 1 and 1", m.Evictions, m.CacheEntries)
	}
	if _, err := (&RemoteRun{c: c, ID: a.ID}).Poll(ctx); err == nil {
		t.Error("the evicted run must be forgotten")
	}
	// Evicting the view does not evict its cells: resubmitting A is served
	// from the cell cache without a single new simulation.
	before := m.CellMisses
	a2, err := c.RunAsync(ctx, RunRequest{Spec: json.RawMessage(fastSpec)})
	if err != nil {
		t.Fatal(err)
	}
	if !a2.Submitted.Cached || a2.Submitted.Status != StatusDone {
		t.Errorf("the evicted view's cells must still serve the resubmission: %+v", a2.Submitted)
	}
	if a2.Submitted.ID == a.ID {
		t.Error("the resubmission must be a fresh view, not the evicted one")
	}
	m, _ = c.Metrics(ctx)
	if m.CellMisses != before {
		t.Errorf("cell misses went %d -> %d on a fully cached resubmission", before, m.CellMisses)
	}
}

func TestDeleteForgetsFinishedRun(t *testing.T) {
	_, c := newTestService(t, Config{})
	ctx := context.Background()
	st, err := c.Run(ctx, RunRequest{Spec: json.RawMessage(fastSpec)})
	if err != nil {
		t.Fatal(err)
	}
	rr := &RemoteRun{c: c, ID: st.ID}
	if err := rr.Cancel(ctx); err != nil { // DELETE on a finished run forgets it
		t.Fatal(err)
	}
	if _, err := rr.Poll(ctx); err == nil {
		t.Error("a deleted run must be forgotten")
	}
	// And the next identical submission re-simulates rather than hitting a
	// dangling cache entry.
	again, err := c.RunAsync(ctx, RunRequest{Spec: json.RawMessage(fastSpec)})
	if err != nil {
		t.Fatal(err)
	}
	if again.Submitted.Cached {
		t.Error("the forgotten run must not serve cache hits")
	}
}

// TestFailedRunsDoNotEvictCachedResults pins the two-tier bookkeeping: a
// run that fails (or is cancelled) must not occupy a result-cache slot,
// so it can never displace a reusable completed run.
func TestFailedRunsDoNotEvictCachedResults(t *testing.T) {
	srv, c := newTestService(t, Config{CacheRuns: 1})
	ctx := context.Background()
	if _, err := c.Run(ctx, RunRequest{Spec: json.RawMessage(fastSpec)}); err != nil {
		t.Fatal(err)
	}
	// A zero-capacitance static buffer passes no validation on the Go
	// submit path and errors at Cell build time: a failed run.
	bad := &scenario.Spec{
		Name:     "svc-bad-static",
		Trace:    scenario.TraceSpec{Gen: "steady", Mean: 0.01, Duration: 10},
		Workload: scenario.WorkloadSpec{Bench: "DE"},
		Buffers:  []scenario.BufferSpec{{Label: "broken", Static: &scenario.StaticSpec{C: 0}}},
	}
	st := srv.Submit(bad, scenario.RunOptions{})
	deadline := time.After(10 * time.Second)
	for {
		poll, err := (&RemoteRun{c: c, ID: st.ID}).Poll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if Terminal(poll.Status) {
			if poll.Status != StatusFailed {
				t.Fatalf("status %q, want failed", poll.Status)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("run never finished")
		case <-time.After(2 * time.Millisecond):
		}
	}
	m, _ := c.Metrics(ctx)
	if m.Evictions != 0 || m.CacheEntries != 1 {
		t.Errorf("evictions %d entries %d: the failed run displaced the cached result", m.Evictions, m.CacheEntries)
	}
	again, err := c.RunAsync(ctx, RunRequest{Spec: json.RawMessage(fastSpec)})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Submitted.Cached {
		t.Error("the completed run must still be served from the cache")
	}
}

func TestDialRejectsBadAddresses(t *testing.T) {
	if _, err := Dial("not a url"); err == nil {
		t.Error("garbage must not dial")
	}
	if _, err := Dial("ftp://localhost"); err == nil {
		t.Error("non-http schemes must not dial")
	}
	if _, err := Dial("http://127.0.0.1:1"); err == nil {
		t.Error("a dead port must not dial")
	}
}
