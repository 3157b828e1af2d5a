package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"react/internal/obs"
	"react/internal/scenario"
)

// This file is the long-poll suite: GET ?wait=&since= on a view, its
// waiter bounds and release paths, and Client.Wait on top of it.

// pollResult is one GET of a view: code, body, version header, and how
// long the server held it.
type pollResult struct {
	code    int
	body    string
	version string
	took    time.Duration
}

// fetchView GETs base+path (with its query) over HTTP.
func fetchView(base, path string) (pollResult, error) {
	start := time.Now()
	resp, err := http.Get(base + path)
	if err != nil {
		return pollResult{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return pollResult{}, err
	}
	return pollResult{resp.StatusCode, string(body), resp.Header.Get(viewVersionHeader), time.Since(start)}, nil
}

// getView is fetchView failing the test on a transport error.
func getView(t *testing.T, base, path string) pollResult {
	t.Helper()
	r, err := fetchView(base, path)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// parkView starts fetchView on its own goroutine; the channel yields the
// answer, or a zero pollResult on a transport error.
func parkView(base, path string) <-chan pollResult {
	ch := make(chan pollResult, 1)
	go func() {
		r, _ := fetchView(base, path)
		ch <- r
	}()
	return ch
}

// statusOf decodes the status field of a view body.
func statusOf(t *testing.T, body string) string {
	t.Helper()
	var st struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("bad view body: %v\n%s", err, body)
	}
	return st.Status
}

// waitFor polls cond every millisecond until it holds or 10 s pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// queuedRun pins the single worker with a blocker and submits a fastSpec
// run behind it, so the run stays running until unblock is called. It
// returns the run's path.
func queuedRun(t *testing.T, srv *Server) (path string, unblock func()) {
	t.Helper()
	started := make(chan int, 1)
	release := make(chan struct{})
	unblock = mustUnblock(t, release)
	srv.Submit(blockerSpec(started, release), scenario.RunOptions{})
	<-started
	spec, err := scenario.ParseSpec([]byte(fastSpec))
	if err != nil {
		t.Fatal(err)
	}
	st := srv.Submit(spec, scenario.RunOptions{Seed: 7})
	if st.Status != StatusRunning {
		t.Fatalf("queued run is %s", st.Status)
	}
	return "/runs/" + st.ID, unblock
}

// TestLongPollOnRunningView covers a running view: an unchanged view holds
// the request to expiry and reports the same version; a stale since
// answers at once; a change of version answers early; and a wait without
// since holds until the view is done.
func TestLongPollOnRunningView(t *testing.T) {
	srv, c := newTestService(t, Config{Workers: 1})
	path, unblock := queuedRun(t, srv)

	plain := getView(t, c.base, path)
	if plain.code != http.StatusOK || plain.version == "" {
		t.Fatalf("plain GET: %d, version %q", plain.code, plain.version)
	}

	held := getView(t, c.base, path+"?wait=150ms&since="+plain.version)
	if held.took < 150*time.Millisecond {
		t.Errorf("unchanged view answered after %v, want the 150ms wait", held.took)
	}
	if held.version != plain.version || statusOf(t, held.body) != StatusRunning {
		t.Errorf("expired wait: version %q status %s, want %q running", held.version, statusOf(t, held.body), plain.version)
	}

	stale := getView(t, c.base, path+"?wait=30s&since=stale")
	if stale.took > 5*time.Second || stale.version != plain.version {
		t.Errorf("stale since held %v (version %q), want an immediate answer", stale.took, stale.version)
	}

	// A since-waiter and a finish-waiter park; releasing the blocker first
	// finishes another view (a wake-up this view must sleep through), then
	// this view's cells.
	changed := parkView(c.base, path+"?wait=30s&since="+plain.version)
	finished := parkView(c.base, path+"?wait=30s")
	waitFor(t, "two parked waiters", func() bool { return srv.waiters.Load() == 2 })
	unblock()
	ch := <-changed
	if ch.code != http.StatusOK || ch.took > 20*time.Second || ch.version == plain.version {
		t.Errorf("since-waiter answered after %v with version %q, want early with a new version", ch.took, ch.version)
	}
	fin := <-finished
	if st := statusOf(t, fin.body); st != StatusDone || fin.took > 20*time.Second {
		t.Errorf("finish-waiter answered %s after %v, want done early", st, fin.took)
	}
	if plain := getView(t, c.base, path); plain.body != fin.body || plain.version != fin.version {
		t.Errorf("long-poll answer differs from the plain GET of the done view:\n%s\n%s", fin.body, plain.body)
	}
	if n := srv.waiters.Load(); n != 0 {
		t.Errorf("%d waiters still counted after every GET answered", n)
	}
}

// TestLongPollDeleteReleasesWaiters: DELETE of a running view answers
// its parked long-polls at once.
func TestLongPollDeleteReleasesWaiters(t *testing.T) {
	srv, c := newTestService(t, Config{Workers: 1})
	path, _ := queuedRun(t, srv)
	version := getView(t, c.base, path).version

	answers := []<-chan pollResult{parkView(c.base, path+"?wait=30s"), parkView(c.base, path+"?wait=30s&since="+version)}
	waitFor(t, "two parked waiters", func() bool { return srv.waiters.Load() == 2 })
	req, _ := http.NewRequest(http.MethodDelete, c.base+path, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, ch := range answers {
		a := <-ch
		if a.code != http.StatusOK || a.took > 10*time.Second {
			t.Errorf("waiter answered %d after %v, want 200 at the DELETE", a.code, a.took)
		}
	}
}

// TestLongPollCancelledViewStillDraining: a cancelled view whose cells a
// sweep still holds stays running. A long-poll with its current version
// holds to expiry instead of answering at once (a since loop would spin);
// without since, the cancel is the end it waits for.
func TestLongPollCancelledViewStillDraining(t *testing.T) {
	srv, c := newTestService(t, Config{Workers: 1})
	path, unblock := queuedRun(t, srv)
	spec, err := scenario.ParseSpec([]byte(fastSpec))
	if err != nil {
		t.Fatal(err)
	}
	ax, err := ResolveSweepAxes(spec, &SweepRequest{Seeds: []uint64{7}})
	if err != nil {
		t.Fatal(err)
	}
	srv.SubmitSweep(spec, ax) // shares both of the run's cells
	req, _ := http.NewRequest(http.MethodDelete, c.base+path, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	cancelled := getView(t, c.base, path)
	if st := statusOf(t, cancelled.body); st != StatusRunning {
		t.Fatalf("cancelled run with shared cells is %s, want running while it drains", st)
	}
	held := getView(t, c.base, path+"?wait=150ms&since="+cancelled.version)
	if held.took < 150*time.Millisecond || held.version != cancelled.version {
		t.Errorf("since-poll on the draining view answered after %v with version %q, want the 150ms wait and %q", held.took, held.version, cancelled.version)
	}
	if ended := getView(t, c.base, path+"?wait=30s"); ended.took > 5*time.Second {
		t.Errorf("finish-poll on the cancelled view held %v, want an immediate answer", ended.took)
	}
	// Following versions, as a progress client does, every answer carries
	// news, and the drained view ends canceled.
	unblock()
	version, status := cancelled.version, StatusRunning
	for i := 0; i < 10 && !Terminal(status); i++ {
		next := getView(t, c.base, path+"?wait=30s&since="+version)
		if next.version == version {
			t.Fatalf("since-poll answered after %v with an unchanged version", next.took)
		}
		version, status = next.version, statusOf(t, next.body)
	}
	if status != StatusCanceled {
		t.Errorf("drained view is %s, want canceled", status)
	}
}

// TestLongPollRejectsMalformedWait: a wait that is not a non-negative
// duration is a 400 with the usual error envelope, for every view kind.
func TestLongPollRejectsMalformedWait(t *testing.T) {
	_, c := newTestService(t, Config{})
	for _, path := range []string{"/runs/r000001?wait=soon", "/sweeps/s000001?wait=-1s", "/explorations/x000001?wait=5"} {
		r := getView(t, c.base, path)
		var eb errorBody
		if r.code != http.StatusBadRequest || json.Unmarshal([]byte(r.body), &eb) != nil || !strings.Contains(eb.Error, "wait") {
			t.Errorf("GET %s: %d %s, want 400 with an error body naming wait", path, r.code, r.body)
		}
	}
}

// TestLongPollWaiterCap: past the waiter cap a long-poll answers at once,
// as a plain poll, and the refusal counts in the registry.
func TestLongPollWaiterCap(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.setWaiterCap(1)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		srv.ReleaseWaiters()
		ts.Close()
		srv.Close()
	})
	path, _ := queuedRun(t, srv)

	parked := parkView(ts.URL, path+"?wait=30s")
	waitFor(t, "the parked waiter", func() bool { return srv.waiters.Load() == 1 })
	over := getView(t, ts.URL, path+"?wait=30s")
	if over.code != http.StatusOK || over.took > 5*time.Second || statusOf(t, over.body) != StatusRunning {
		t.Errorf("GET past the cap: %d after %v, want an immediate plain poll", over.code, over.took)
	}
	text, _ := scrapeText(t, ts.URL, "/metrics", "")
	samples, err := obs.ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if samples["react_view_waits_refused_total"] != 1 || samples["react_view_waiters"] != 1 {
		t.Errorf("refused %g, parked %g; want 1 and 1", samples["react_view_waits_refused_total"], samples["react_view_waiters"])
	}
	srv.ReleaseWaiters()
	if a := <-parked; a.code != http.StatusOK || a.took > 20*time.Second {
		t.Errorf("released waiter answered after %v", a.took)
	}
	// Released for shutdown: later long-polls no longer park.
	if late := getView(t, ts.URL, path+"?wait=30s"); late.took > 5*time.Second {
		t.Errorf("long-poll after ReleaseWaiters held %v", late.took)
	}
}

// TestClientWaitOneRequest: Client.Wait on a view that finishes later
// returns with one status request, not a poll series.
func TestClientWaitOneRequest(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var gets atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/runs/") {
			gets.Add(1)
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		srv.ReleaseWaiters()
		ts.Close()
		srv.Close()
	})
	c, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan int, 1)
	release := make(chan struct{})
	unblock := mustUnblock(t, release)
	srv.Submit(blockerSpec(started, release), scenario.RunOptions{})
	<-started
	rr, err := c.RunAsync(context.Background(), RunRequest{Spec: json.RawMessage(fastSpec)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := rr.Wait(context.Background())
		done <- err
	}()
	waitFor(t, "Wait's parked request", func() bool { return srv.waiters.Load() == 1 })
	unblock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := gets.Load(); n != 1 {
		t.Errorf("Wait issued %d status requests, want 1", n)
	}
}

// TestClientWaitPacesAgainstServerIgnoringWait: a server that answers
// ?wait= at once (an older node) gets paced requests, not a busy loop.
func TestClientWaitPacesAgainstServerIgnoringWait(t *testing.T) {
	var gets atomic.Int64
	var first atomic.Pointer[time.Time]
	const runFor = 400 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/metrics.json":
			writeJSON(w, http.StatusOK, &Metrics{})
		case r.Method == http.MethodGet && r.URL.Path == "/runs/r1":
			gets.Add(1)
			// Half the default 30 s request timeout, under the 60 s cap.
			if w := r.URL.Query().Get("wait"); w != "15s" {
				t.Errorf("Wait sent wait=%q, want 15s", w)
			}
			now := time.Now()
			first.CompareAndSwap(nil, &now)
			status := StatusRunning
			if time.Since(*first.Load()) >= runFor {
				status = StatusDone
			}
			writeJSON(w, http.StatusOK, &RunStatus{ID: "r1", Status: status})
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ts.Close)
	c, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	st, err := (&RemoteRun{c: c, ID: "r1"}).Wait(context.Background())
	if err != nil || st.Status != StatusDone {
		t.Fatalf("Wait: %v, %+v", err, st)
	}
	// 400 ms at one request per 100 ms gap is five requests; allow
	// scheduling slack, but not a spin.
	if n := gets.Load(); n > 10 {
		t.Errorf("Wait sent %d requests in %v to a server ignoring wait", n, runFor)
	}
}

// BenchmarkSweepWithParkedWaiters measures what parked long-polls cost the
// cell path: one 512-cell sweep of fastSpec on 2 workers, fresh each
// iteration, with a full waiter pool (maxViewWaiters) parked on it or none.
// Finish waiters park as Client.Wait does and re-check O(1) per wake-up;
// since waiters re-park at every new version, as a progress client
// following ?since= does with no network between its polls, and read the
// view's version on every wake-up.
func BenchmarkSweepWithParkedWaiters(b *testing.B) {
	spec, err := scenario.ParseSpec([]byte(fastSpec))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		waiters int
		since   bool
	}{
		{"waiters=0", 0, false},
		{"waiters=1024/finish", maxViewWaiters, false},
		{"waiters=1024/since", maxViewWaiters, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srv, err := New(Config{Workers: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			const seeds = 256
			for i := 0; i < b.N; i++ {
				ax, err := ResolveSweepAxes(spec, &SweepRequest{SeedFrom: uint64(i*seeds + 1), SeedTo: uint64(i*seeds + seeds)})
				if err != nil {
					b.Fatal(err)
				}
				st := srv.SubmitSweep(spec, ax)
				srv.mu.Lock()
				v := srv.views[st.ID]
				srv.mu.Unlock()
				ctx, cancel := context.WithCancel(context.Background())
				var wg sync.WaitGroup
				// One slot of the pool is the benchmark's own finish waiter.
				for w := 1; w < bc.waiters; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if !bc.since {
							srv.awaitView(ctx, v, time.Hour, "", false)
							return
						}
						for ctx.Err() == nil && !v.ended() {
							srv.awaitView(ctx, v, time.Hour, srv.version(v), true)
						}
					}()
				}
				srv.awaitView(ctx, v, time.Hour, "", false)
				if !v.ended() {
					b.Fatal("the sweep's finish waiter returned before the sweep ended")
				}
				cancel()
				wg.Wait()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*seeds), "ns/cell")
		})
	}
}
