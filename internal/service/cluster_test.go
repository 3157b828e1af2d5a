package service

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"react/internal/explore"
	"react/internal/scenario"
	"react/internal/store"
)

// testNode is one in-process cluster member: a Server behind a real TCP
// listener (peers dial each other over loopback) plus a dialed client.
type testNode struct {
	srv    *Server
	client *Client
	url    string
	http   *http.Server

	// intercept, when set, sees every request before the server does.
	intercept atomic.Pointer[func(*http.Request)]
}

// newTestCluster boots n reactd nodes sharing one ring. Listeners are
// created first so every node knows the full member list before any
// server starts. stores, when given, back node i with stores[i].
func newTestCluster(t *testing.T, n int, cfg Config, stores ...*store.Store) []*testNode {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*testNode, n)
	for i := range nodes {
		c := cfg
		c.Self = urls[i]
		c.Peers = urls
		if stores != nil {
			c.Store = stores[i]
		}
		srv, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		nd := &testNode{srv: srv, url: urls[i]}
		nd.http = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if f := nd.intercept.Load(); f != nil {
				(*f)(r)
			}
			srv.ServeHTTP(w, r)
		})}
		go nd.http.Serve(lns[i])
		nodes[i] = nd
	}
	t.Cleanup(func() {
		// HTTP first so no new work lands, then the servers (in-flight
		// peer fetches fail over to local simulation and drain).
		for _, nd := range nodes {
			nd.http.Close()
		}
		for _, nd := range nodes {
			nd.srv.Close()
		}
	})
	for _, nd := range nodes {
		client, err := Dial(nd.url)
		if err != nil {
			t.Fatal(err)
		}
		nd.client = client
	}
	return nodes
}

// ownerCounts computes, from the ring alone, how many of the sweep's
// cells each member owns — the test's independent model of the shard
// split (ownership is a pure function of member set and fingerprint).
func ownerCounts(t *testing.T, urls []string, seeds []uint64) map[string]int {
	t.Helper()
	cl, err := newCluster(urls[0], urls, time.Second)
	if err != nil || cl == nil {
		t.Fatalf("newCluster: %v (%v)", cl, err)
	}
	spec, err := scenario.ParseSpec([]byte(fastSpec))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := range spec.Buffers {
		for _, seed := range seeds {
			fp, err := spec.FingerprintCell(i, scenario.RunOptions{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			counts[cl.owner(fp)]++
		}
	}
	return counts
}

// TestClusterSweepThenExplorationZeroNewSims is the 2-node acceptance
// test: a sweep submitted to node A shards its cells across the ring —
// each cell simulated exactly once somewhere in the cluster and persisted
// on its owner — and a later overlapping exploration on node B simulates
// nothing anywhere: B's cell hits rise, sims stay flat on both nodes.
func TestClusterSweepThenExplorationZeroNewSims(t *testing.T) {
	nodes := newTestCluster(t, 2, Config{Workers: 2}, openStore(t, t.TempDir()), openStore(t, t.TempDir()))
	a, b := nodes[0], nodes[1]
	ctx := context.Background()

	// Ownership depends on the OS-assigned member ports, so probe candidate
	// seed sets for one that lands cells on both nodes (each candidate is
	// degenerate with probability 2^-7; four make a miss astronomically
	// unlikely).
	var seeds []uint64
	var want map[string]int
	for _, base := range []uint64{1, 5, 9, 13} {
		seeds = []uint64{base, base + 1, base + 2, base + 3}
		want = ownerCounts(t, []string{a.url, b.url}, seeds)
		if want[a.url] > 0 && want[b.url] > 0 {
			break
		}
	}
	if want[a.url] == 0 || want[b.url] == 0 {
		t.Fatalf("degenerate shard split %v for every candidate seed set", want)
	}

	sw, err := a.client.Sweep(ctx, SweepRequest{Spec: json.RawMessage(fastSpec), Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Status != StatusDone || len(sw.Cells) != 8 {
		t.Fatalf("sweep did not complete: %+v", sw)
	}

	ma0, _ := a.client.Metrics(ctx)
	mb0, _ := b.client.Metrics(ctx)
	if got := ma0.SimsCompleted + mb0.SimsCompleted; got != 8 {
		t.Errorf("cluster simulated %d cells (A %d, B %d), want each of 8 once", got, ma0.SimsCompleted, mb0.SimsCompleted)
	}
	assertOnOwnersDisk(t, nodes, fastSpec, seeds)
	for _, m := range []*Metrics{ma0, mb0} {
		if m.DiskPuts != m.SimsCompleted+m.CellsDelegated {
			t.Errorf("%s: %d disk puts, want %d sims + %d delegated", m.ClusterSelf, m.DiskPuts, m.SimsCompleted, m.CellsDelegated)
		}
	}
	// Fan-out reuses the batch grouping: one peer request per (seed, route)
	// pair, not one per cell.
	if wantA, wantB := wantPeerRequests(t, a, fastSpec, seeds); ma0.PeerRequests != wantA || mb0.PeerRequests != wantB {
		t.Errorf("peer requests A %d, B %d; want %d, %d", ma0.PeerRequests, mb0.PeerRequests, wantA, wantB)
	}
	if ma0.PeerFallbacks != 0 {
		t.Errorf("node A degraded %d times with a healthy peer", ma0.PeerFallbacks)
	}

	// The overlapping exploration on B: same physics, same seeds — every
	// point served by B's own cache or by A, zero new simulations.
	spec, _ := scenario.ParseSpec([]byte(fastSpec))
	ex, err := b.client.Explore(ctx, &explore.Space{
		Spec:    spec,
		Presets: []string{"770 µF", "REACT"},
		Seeds:   seeds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Status != StatusDone {
		t.Fatalf("exploration did not complete: %+v", ex)
	}
	ma1, _ := a.client.Metrics(ctx)
	mb1, _ := b.client.Metrics(ctx)
	if ma1.SimsCompleted != ma0.SimsCompleted || mb1.SimsCompleted != mb0.SimsCompleted {
		t.Errorf("exploration simulated: A %d->%d, B %d->%d; want flat",
			ma0.SimsCompleted, ma1.SimsCompleted, mb0.SimsCompleted, mb1.SimsCompleted)
	}
	if mb1.CellHits <= mb0.CellHits {
		t.Errorf("node B cell hits did not rise (%d -> %d)", mb0.CellHits, mb1.CellHits)
	}
}

// TestClusterResultsMatchSingleNode pins proxied results bit-identically:
// the same sweep on a lone node and through the cluster produces the same
// summary rows, whichever node simulated each cell.
func TestClusterResultsMatchSingleNode(t *testing.T) {
	ctx := context.Background()
	_, solo := newTestService(t, Config{Workers: 2})
	req := SweepRequest{Spec: json.RawMessage(fastSpec), Seeds: []uint64{1, 2, 3}}
	want, err := solo.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	nodes := newTestCluster(t, 2, Config{Workers: 2})
	got, err := nodes[0].client.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	wj, _ := json.Marshal(want.Summary)
	gj, _ := json.Marshal(got.Summary)
	if string(wj) != string(gj) {
		t.Errorf("clustered summary diverged from single-node:\n%s\n%s", wj, gj)
	}
}

// TestClusterDegradesWhenPeerDown: with its peer unreachable, a node
// retries once, falls back to local simulation, and still answers — a
// dead peer costs latency, never availability.
func TestClusterDegradesWhenPeerDown(t *testing.T) {
	nodes := newTestCluster(t, 2, Config{Workers: 2, PeerTimeout: 500 * time.Millisecond})
	a, b := nodes[0], nodes[1]
	b.http.Close() // B is down before any work lands

	ctx := context.Background()
	seeds := []uint64{1, 2, 3, 4}
	want := ownerCounts(t, []string{a.url, b.url}, seeds)

	sw, err := a.client.Sweep(ctx, SweepRequest{Spec: json.RawMessage(fastSpec), Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Status != StatusDone || len(sw.Cells) != 8 {
		t.Fatalf("sweep did not survive the dead peer: %+v", sw)
	}
	for _, cs := range sw.Cells {
		if !cs.Done || cs.Error != "" || cs.Result == nil {
			t.Fatalf("cell not served locally after fallback: %+v", cs)
		}
	}
	m, _ := a.client.Metrics(ctx)
	if m.SimsCompleted != 8 {
		t.Errorf("node A simulated %d cells, want all 8 (fallback)", m.SimsCompleted)
	}
	if m.PeerFallbacks == 0 || m.PeerRetries == 0 {
		t.Errorf("no fallback/retry recorded: %+v", m)
	}
	if m.QueueDepth != 0 {
		t.Errorf("queue depth %d after fallback drain, want 0", m.QueueDepth)
	}
	_ = want // the split is irrelevant once everything runs locally
}

// TestNoForwardPinsCells: a no_forward run submitted to the non-owner
// simulates where it lands — the cycle-breaking contract peer fan-out
// relies on.
func TestNoForwardPinsCells(t *testing.T) {
	nodes := newTestCluster(t, 2, Config{Workers: 2})
	a, b := nodes[0], nodes[1]
	ctx := context.Background()

	req := RunRequest{Spec: json.RawMessage(fastSpec), NoForward: true}
	if _, err := a.client.Run(ctx, req); err != nil {
		t.Fatal(err)
	}
	ma, _ := a.client.Metrics(ctx)
	mb, _ := b.client.Metrics(ctx)
	if ma.SimsCompleted != 2 || ma.PeerRequests != 0 {
		t.Errorf("no_forward run forwarded: %d sims, %d peer requests on A", ma.SimsCompleted, ma.PeerRequests)
	}
	if mb.SimsCompleted != 0 {
		t.Errorf("node B simulated %d cells for A's pinned run", mb.SimsCompleted)
	}
}

// forwardToBusyOwner boots a two-node ring, pins node B's only worker,
// and submits on node A a run with a cell owned by B, so the forwarded run
// queues on B. It returns node B, A's run, the forwarded run's id on B,
// and the function that frees B's worker.
func forwardToBusyOwner(t *testing.T) (b *testNode, rr *RemoteRun, fwd string, unblock func()) {
	t.Helper()
	nodes := newTestCluster(t, 2, Config{Workers: 1})
	a, b := nodes[0], nodes[1]

	var seed uint64
	for s := uint64(1); s <= 32 && seed == 0; s++ {
		if ownerCounts(t, []string{a.url, b.url}, []uint64{s})[b.url] > 0 {
			seed = s
		}
	}
	if seed == 0 {
		t.Fatal("no seed in 1..32 puts a cell on node B")
	}
	started := make(chan int, 1)
	release := make(chan struct{})
	unblock = mustUnblock(t, release)
	b.srv.Submit(blockerSpec(started, release), scenario.RunOptions{})
	<-started

	rr, err := a.client.RunAsync(context.Background(), RunRequest{Spec: json.RawMessage(fastSpec), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the forwarded run on B", func() bool {
		b.srv.mu.Lock()
		defer b.srv.mu.Unlock()
		for id, v := range b.srv.views {
			if v.kind == runKind && v.noFwd {
				fwd = id
			}
		}
		return fwd != ""
	})
	return b, rr, fwd, unblock
}

// TestCancelForwardedViewCancelsOwnerRun: cancelling a view on node A
// abandons its forwarded cells, and A cancels the run it submitted to
// their owner, so the owner stops simulating cells nobody wants.
func TestCancelForwardedViewCancelsOwnerRun(t *testing.T) {
	b, rr, fwd, _ := forwardToBusyOwner(t)
	ctx := context.Background()
	if err := rr.Cancel(ctx); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	st, _ := (&RemoteRun{c: b.client, ID: fwd}).Wait(wctx)
	if st == nil || st.Status != StatusCanceled {
		t.Fatalf("owner's forwarded run after the cancel on A: %+v, want canceled", st)
	}
}

// TestCancelForwardedViewSparesSharedRuns: a forwarded run is private on
// its owner. A direct run of the same spec and seed on the owner, and a
// second forward of them, get runs of their own that share its cells, so
// node A's cancel leaves both running and both finish done.
func TestCancelForwardedViewSparesSharedRuns(t *testing.T) {
	b, rr, fwd, unblock := forwardToBusyOwner(t)
	ctx := context.Background()

	b.srv.mu.Lock()
	v := b.srv.views[fwd]
	spec, opt := v.spec, scenario.RunOptions{Seed: v.seeds[0], DT: v.dts[0]}
	b.srv.mu.Unlock()
	direct := b.srv.Submit(spec, opt)
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	other, err := b.client.RunAsync(ctx, RunRequest{Spec: data, Seed: opt.Seed, DT: opt.DT, NoForward: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{direct.ID, other.ID} {
		if id == fwd {
			t.Fatalf("a submission on B joined the forwarded run %s", fwd)
		}
	}

	if err := rr.Cancel(ctx); err != nil {
		t.Fatal(err)
	}
	b.srv.mu.Lock()
	fv := b.srv.views[fwd]
	b.srv.mu.Unlock()
	waitFor(t, "A's cancel of the forwarded run", func() bool {
		fv.mu.Lock()
		defer fv.mu.Unlock()
		return fv.canceled
	})
	// The forwarded run drains with the cells it shares; once B's worker
	// goes, it ends canceled and the runs sharing its cells end done.
	unblock()
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if st, _ := (&RemoteRun{c: b.client, ID: fwd}).Wait(wctx); st == nil || st.Status != StatusCanceled {
		t.Errorf("forwarded run after the cancel on A: %+v, want canceled", st)
	}
	for _, id := range []string{direct.ID, other.ID} {
		if st, err := (&RemoteRun{c: b.client, ID: id}).Wait(wctx); err != nil || st.Status != StatusDone {
			t.Errorf("run %s sharing the forwarded run's cells: %v, want done", id, err)
		}
	}
}
