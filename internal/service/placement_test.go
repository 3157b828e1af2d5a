package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"react/internal/buffer"
	"react/internal/obs"
	"react/internal/scenario"
	"react/internal/trace"
)

// TestPlanSims pins the planner: heaviest cells move first, a cell leaves
// its owner only when that lowers the larger of the two members' loads, a
// tie keeps the owner, and the same input always gives the same plan.
func TestPlanSims(t *testing.T) {
	two := []string{"a", "b"}
	for _, tc := range []struct {
		name    string
		members []string
		owners  []string
		weights []int
		want    []string
	}{
		{"one owner, mixed kinds", two, []string{"a", "a", "a", "a"}, []int{1, 1, 4, 4}, []string{"b", "a", "b", "a"}},
		{"already balanced", two, []string{"a", "b"}, []int{4, 4}, []string{"a", "b"}},
		{"a move that only swaps the loads stays", two, []string{"a"}, []int{2}, []string{"a"}},
		{"equal cells split evenly", two, []string{"a", "a"}, []int{1, 1}, []string{"b", "a"}},
		{"light cells fill the gap", two, []string{"a", "b", "b", "b"}, []int{4, 1, 1, 1}, []string{"a", "b", "b", "b"}},
		{"three members", []string{"a", "b", "c"}, []string{"c", "c", "c", "c"}, []int{4, 4, 2, 2}, []string{"a", "b", "c", "c"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := planSims(tc.members, tc.owners, tc.weights)
			if !slices.Equal(got, tc.want) {
				t.Fatalf("planSims(%v, %v) = %v, want %v", tc.owners, tc.weights, got, tc.want)
			}
			if again := planSims(tc.members, tc.owners, tc.weights); !slices.Equal(again, got) {
				t.Fatalf("second plan %v differs from the first %v", again, got)
			}
		})
	}
}

// TestSimWeights pins the per-kind cost table the planner reads.
func TestSimWeights(t *testing.T) {
	want := map[string]int{"770 µF": 1, "10 mF": 1, "17 mF": 1, "Dewdrop": 1, "Capybara": 2, "REACT": 4, "Morphy": 4}
	for _, name := range scenario.PresetBuffers {
		if got := simWeight(scenario.BufferSpec{Preset: name}); got != want[name] {
			t.Errorf("simWeight(%s) = %d, want %d", name, got, want[name])
		}
	}
	if got := simWeight(scenario.BufferSpec{Label: "c", Static: &scenario.StaticSpec{C: 1e-3}}); got != 1 {
		t.Errorf("simWeight(custom static) = %d, want 1", got)
	}
	if got := simWeight(scenario.BufferSpec{Label: "r", React: &scenario.ReactSpec{NoPoll: true}}); got != 4 {
		t.Errorf("simWeight(react block) = %d, want 4", got)
	}
}

// TestPlaceKeepsPinnedCells: only travelling cells are planned. A cell of
// a no_forward submission, or on a Loaded trace, is owned and simulated
// here however loaded the ring is; a no_forward cell naming SimulateOn is
// delegated to that member; travelling cells are balanced.
func TestPlaceKeepsPinnedCells(t *testing.T) {
	a, b := "http://a.test", "http://b.test"
	cl, err := newCluster(a, []string{a, b}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.ParseSpec([]byte(fastSpec))
	if err != nil {
		t.Fatal(err)
	}
	loaded := spec.Clone()
	loaded.Trace = scenario.TraceSpec{Loaded: &trace.Trace{Name: "flat", DT: 1, Power: []float64{1e-3, 1e-3}}}
	pending := func(sp *scenario.Spec, noFwd bool, simOn string) pendingCell {
		return pendingCell{c: &cell{fp: "fp"}, spec: sp, i: 1, noFwd: noFwd, simOn: simOn}
	}
	group := []pendingCell{
		pending(spec, true, ""),
		pending(loaded, false, ""),
		pending(spec, true, b),
		pending(spec, true, a),
	}
	cl.place([][]pendingCell{group})
	wantRoutes := []struct {
		r      peerRoute
		remote bool
	}{
		{peerRoute{}, false},
		{peerRoute{}, false},
		{peerRoute{to: b, delegate: true}, true},
		{peerRoute{}, false},
	}
	for i, p := range group {
		if p.owner != a {
			t.Errorf("cell %d: owner %q, want this node %q", i, p.owner, a)
		}
		r, remote := cl.route(p)
		if r != wantRoutes[i].r || remote != wantRoutes[i].remote {
			t.Errorf("cell %d: route %+v (remote %v), want %+v (remote %v)", i, r, remote, wantRoutes[i].r, wantRoutes[i].remote)
		}
	}

	// Four REACT cells, whoever owns them, end two on each member.
	var travel []pendingCell
	for seed := uint64(1); seed <= 4; seed++ {
		fp, err := spec.FingerprintCell(1, scenario.RunOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		travel = append(travel, pendingCell{c: &cell{fp: fp}, spec: spec, i: 1})
	}
	cl.place([][]pendingCell{travel[:2], travel[2:]})
	sims := map[string]int{}
	for _, p := range travel {
		if p.owner != cl.owner(p.c.fp) {
			t.Errorf("travelling cell owner %q, want the ring owner %q", p.owner, cl.owner(p.c.fp))
		}
		sims[p.simOn]++
	}
	if sims[a] != 2 || sims[b] != 2 {
		t.Errorf("four REACT cells placed %v, want two per member", sims)
	}
}

// multiSpec is fastSpec over four buffers of three cost classes.
const multiSpec = `{
	"name": "svc-multi",
	"trace": {"gen": "steady", "mean": 0.01, "duration": 30},
	"workload": {"bench": "DE"},
	"buffers": [{"preset": "770 µF"}, {"preset": "10 mF"}, {"preset": "Morphy"}, {"preset": "REACT"}]
}`

// TestPlacementLeavesUntravellingCellsLocal runs the three kinds of cells
// that never travel through a live two-node ring — unfingerprintable
// cells, cells on a Loaded trace and cells of a no_forward run — and none
// reaches the peer: all simulate on the node they were submitted to.
func TestPlacementLeavesUntravellingCellsLocal(t *testing.T) {
	nodes := newTestCluster(t, 2, Config{Workers: 2})
	a, b := nodes[0], nodes[1]
	ctx := context.Background()
	spec, err := scenario.ParseSpec([]byte(multiSpec))
	if err != nil {
		t.Fatal(err)
	}

	custom := spec.Clone()
	custom.Buffers = nil
	for _, name := range []string{"Morphy", "REACT"} {
		custom.Buffers = append(custom.Buffers, scenario.BufferSpec{Label: "go " + name, New: func() buffer.Buffer {
			buf, _ := scenario.NewPresetBuffer(name)
			return buf
		}})
	}
	loaded := spec.Clone()
	loaded.Trace = scenario.TraceSpec{Loaded: &trace.Trace{Name: "flat", DT: 1, Power: slices.Repeat([]float64{0.01}, 30)}}
	runs := []*RunStatus{
		a.srv.Submit(custom, scenario.RunOptions{}),
		a.srv.Submit(loaded, scenario.RunOptions{}),
	}
	pinned, err := a.client.RunAsync(ctx, RunRequest{Spec: json.RawMessage(multiSpec), NoForward: true})
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs, &RunStatus{ID: pinned.ID})
	for _, st := range runs {
		done, err := (&RemoteRun{c: a.client, ID: st.ID}).Wait(ctx)
		if err != nil || done.Status != StatusDone {
			t.Fatalf("run %s: %v %+v", st.ID, err, done)
		}
	}
	ma, _ := a.client.Metrics(ctx)
	mb, _ := b.client.Metrics(ctx)
	if ma.SimsCompleted != 10 || ma.PeerRequests != 0 || mb.SimsCompleted != 0 {
		t.Errorf("A simulated %d of 10 cells with %d peer requests; B simulated %d", ma.SimsCompleted, ma.PeerRequests, mb.SimsCompleted)
	}
}

// cellOwners maps every (buffer, seed) cell of a spec to its fingerprint
// and ring owner.
func cellOwners(t *testing.T, nodes []*testNode, specJSON string, seeds []uint64) (fps, owners []string) {
	t.Helper()
	spec, err := scenario.ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	cl := nodes[0].srv.cluster
	for i := range spec.Buffers {
		for _, seed := range seeds {
			fp, err := spec.FingerprintCell(i, scenario.RunOptions{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			fps = append(fps, fp)
			owners = append(owners, cl.owner(fp))
		}
	}
	return fps, owners
}

// assertOnOwnersDisk checks that every (buffer, seed) cell of a spec is
// persisted on its ring owner, with exactly the bytes an in-process
// simulation of the cell encodes to.
func assertOnOwnersDisk(t *testing.T, nodes []*testNode, specJSON string, seeds []uint64) {
	t.Helper()
	spec, err := scenario.ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	byURL := map[string]*testNode{}
	for _, nd := range nodes {
		byURL[nd.url] = nd
	}
	fps, owners := cellOwners(t, nodes, specJSON, seeds)
	k := 0
	for i := range spec.Buffers {
		for _, seed := range seeds {
			fp, owner := fps[k], byURL[owners[k]]
			k++
			res, err := scenario.RunBatch([]scenario.BatchItem{{Spec: spec, Buffer: i}}, scenario.RunOptions{Seed: seed}, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := encodeCell(res[0])
			if err != nil {
				t.Fatal(err)
			}
			got, err := owner.srv.store.Get(fp)
			if err != nil {
				t.Errorf("%s seed %d: not on its owner %s's disk: %v", spec.Buffers[i].DisplayName(), seed, owner.url, err)
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s seed %d: owner %s persisted bytes that differ from an in-process simulation", spec.Buffers[i].DisplayName(), seed, owner.url)
			}
		}
	}
}

// wantPeerRequests replays the placement of a sweep of a spec over seeds
// submitted to nd — its cells in attach order, grouped by seed (the batch
// key) — and counts the peer requests its fan-out makes. Travelling cells
// stay grouped, so nd sends one request per (seed, route) pair, never one
// per cell, and an owner answering a simulate_on forward with misses sends
// one delegation for it.
func wantPeerRequests(t *testing.T, nd *testNode, specJSON string, seeds []uint64) (coordinator, owners uint64) {
	t.Helper()
	spec, err := scenario.ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	groups := make([][]pendingCell, len(seeds))
	for g, seed := range seeds {
		for i := range spec.Buffers {
			fp, err := spec.FingerprintCell(i, scenario.RunOptions{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			groups[g] = append(groups[g], pendingCell{c: &cell{fp: fp}, spec: spec, i: i})
		}
	}
	cl := nd.srv.cluster
	cl.place(groups)
	for _, g := range groups {
		routes := map[peerRoute]bool{}
		for _, p := range g {
			if r, remote := cl.route(p); remote && !routes[r] {
				routes[r] = true
				coordinator++
				if r.simOn != "" {
					owners++
				}
			}
		}
	}
	return coordinator, owners
}

// seedOwnedBy returns a seed whose every multiSpec cell the given member
// owns.
func seedOwnedBy(t *testing.T, nodes []*testNode, member string) uint64 {
	t.Helper()
	for seed := uint64(1); seed <= 1000; seed++ {
		_, owners := cellOwners(t, nodes, multiSpec, []uint64{seed})
		if slices.IndexFunc(owners, func(o string) bool { return o != member }) < 0 {
			return seed
		}
	}
	t.Fatalf("no seed in 1..1000 puts every cell on %s", member)
	return 0
}

// TestClusterBalancesOneOwnerRun is the placement acceptance test: a
// four-buffer run whose every cell hashes to one node still simulates on
// both, each cell once, and every cell ends on its owner's disk. Whether
// the submitting node is the owner (it delegates) or not (the forward to
// the owner names it in simulate_on, and the owner delegates back),
// overlapping views on either node then simulate nothing.
func TestClusterBalancesOneOwnerRun(t *testing.T) {
	nodes := newTestCluster(t, 2, Config{Workers: 1}, openStore(t, t.TempDir()), openStore(t, t.TempDir()))
	a, b := nodes[0], nodes[1]
	ctx := context.Background()
	for _, owner := range []*testNode{a, b} {
		name := "submitter owns"
		if owner == b {
			name = "peer owns"
		}
		t.Run(name, func(t *testing.T) {
			seed := seedOwnedBy(t, nodes, owner.url)
			ma0, _ := a.client.Metrics(ctx)
			mb0, _ := b.client.Metrics(ctx)
			rr, err := a.client.RunAsync(ctx, RunRequest{Spec: json.RawMessage(multiSpec), Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			st, err := rr.Wait(ctx)
			if err != nil || st.Status != StatusDone {
				t.Fatalf("run: %v %+v", err, st)
			}
			ma1, _ := a.client.Metrics(ctx)
			mb1, _ := b.client.Metrics(ctx)
			simsA, simsB := ma1.SimsCompleted-ma0.SimsCompleted, mb1.SimsCompleted-mb0.SimsCompleted
			if simsA == 0 || simsB == 0 || simsA+simsB != 4 {
				t.Errorf("sims A %d, B %d; want both nonzero, summing to the 4 cells", simsA, simsB)
			}
			for _, m := range []*Metrics{ma1, mb1} {
				if m.DiskPuts != m.SimsCompleted+m.CellsDelegated {
					t.Errorf("%s: %d disk puts, want %d sims + %d delegated", m.ClusterSelf, m.DiskPuts, m.SimsCompleted, m.CellsDelegated)
				}
			}
			if d := ma1.CellsDelegated + mb1.CellsDelegated - ma0.CellsDelegated - mb0.CellsDelegated; d == 0 {
				t.Error("no cell was delegated")
			}
			wantA, wantB := wantPeerRequests(t, a, multiSpec, []uint64{seed})
			if gotA, gotB := ma1.PeerRequests-ma0.PeerRequests, mb1.PeerRequests-mb0.PeerRequests; gotA != wantA || gotB != wantB {
				t.Errorf("peer requests A %d, B %d; want one per (seed, route): %d, %d", gotA, gotB, wantA, wantB)
			}
			assertOnOwnersDisk(t, nodes, multiSpec, []uint64{seed})

			// The owner's trace records where each cell ran: a delegate
			// span naming the other member, over that member's sim spans.
			tr, err := rr.Trace(ctx)
			if err != nil {
				t.Fatal(err)
			}
			other := a.url
			if owner == a {
				other = b.url
			}
			var delegates, remoteSims int
			var walk func(n *obs.SpanTree, under bool)
			walk = func(n *obs.SpanTree, under bool) {
				if n.Name == "delegate" {
					if n.Node != owner.url || n.Attrs["node"] != other {
						t.Errorf("delegate span on %s naming %q, want on the owner %s naming %s", n.Node, n.Attrs["node"], owner.url, other)
					}
					delegates++
					under = true
				}
				if n.Name == "sim" && under && n.Node == other {
					remoteSims++
				}
				for _, c := range n.Children {
					walk(c, under)
				}
			}
			for _, r := range tr.Roots {
				walk(r, false)
			}
			if delegates == 0 || remoteSims == 0 {
				t.Errorf("trace shows %d delegate spans over %d sim spans on %s, want both nonzero", delegates, remoteSims, other)
			}

			// Overlapping views on either node: served, never simulated.
			for _, nd := range nodes {
				sw, err := nd.client.Sweep(ctx, SweepRequest{Spec: json.RawMessage(multiSpec), Seeds: []uint64{seed}})
				if err != nil || sw.Status != StatusDone {
					t.Fatalf("overlapping sweep on %s: %v %+v", nd.url, err, sw)
				}
			}
			ma2, _ := a.client.Metrics(ctx)
			mb2, _ := b.client.Metrics(ctx)
			if ma2.SimsCompleted != ma1.SimsCompleted || mb2.SimsCompleted != mb1.SimsCompleted {
				t.Errorf("overlapping sweeps simulated: A %d->%d, B %d->%d", ma1.SimsCompleted, ma2.SimsCompleted, mb1.SimsCompleted, mb2.SimsCompleted)
			}
		})
	}
}

// TestOverlappingCoordinatorsSimulateOnce: node B owns every cell of a
// four-buffer run and delegates part of it to node A; while that
// delegation is held at A's door, an overlapping one-buffer run on A
// forwards one of the delegated cells to B. B joins its own cell in
// flight rather than simulating a copy, and A, receiving the delegation
// with the cell already waiting on B, simulates it — so the two views
// simulate each cell once between them.
func TestOverlappingCoordinatorsSimulateOnce(t *testing.T) {
	nodes := newTestCluster(t, 2, Config{Workers: 2}, openStore(t, t.TempDir()), openStore(t, t.TempDir()))
	a, b := nodes[0], nodes[1]
	ctx := context.Background()
	seed := seedOwnedBy(t, nodes, b.url)

	// B's plan for the four cells (TestPlanSims "one owner, mixed kinds")
	// puts 770 µF and Morphy on A. A alone with Morphy keeps it on B.
	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	unblock := mustUnblock(t, release)
	hold := func(r *http.Request) {
		if r.Method != http.MethodPost || !strings.HasSuffix(r.URL.Path, "/runs") {
			return
		}
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		var rr RunRequest
		if json.Unmarshal(body, &rr) == nil && rr.NoForward {
			arrived <- struct{}{}
			select {
			case <-release:
			case <-r.Context().Done():
			}
		}
	}
	a.intercept.Store(&hold)

	full, err := b.client.RunAsync(ctx, RunRequest{Spec: json.RawMessage(multiSpec), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	<-arrived // B's delegation waits at A's door
	morphy := strings.Replace(multiSpec, `{"preset": "770 µF"}, {"preset": "10 mF"}, {"preset": "Morphy"}, {"preset": "REACT"}`, `{"preset": "Morphy"}`, 1)
	part, err := a.client.RunAsync(ctx, RunRequest{Spec: json.RawMessage(morphy), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "A's forward on B", func() bool {
		b.srv.mu.Lock()
		defer b.srv.mu.Unlock()
		for _, v := range b.srv.views {
			if v.kind == runKind && v.noFwd {
				return true
			}
		}
		return false
	})
	unblock()

	for _, rr := range []*RemoteRun{full, part} {
		if st, err := rr.Wait(ctx); err != nil || st.Status != StatusDone {
			t.Fatalf("run %s: %v %+v", rr.ID, err, st)
		}
	}
	ma, _ := a.client.Metrics(ctx)
	mb, _ := b.client.Metrics(ctx)
	if ma.SimsCompleted != 2 || mb.SimsCompleted != 2 {
		t.Errorf("sims A %d, B %d; want 2 and 2, each of the 4 cells once", ma.SimsCompleted, mb.SimsCompleted)
	}
	assertOnOwnersDisk(t, nodes, multiSpec, []uint64{seed})
}

// TestCancelThroughSimulateOnHop: node B owns both cells of a run
// submitted to node A, and the plan puts the REACT cell on A, so A's
// forward to B names A in simulate_on and B delegates the cell back to
// A, where it queues behind a blocker. Cancelling the run on A cancels
// B's forwarded run, and B's abandoned delegation cancels the delegated
// run on A.
func TestCancelThroughSimulateOnHop(t *testing.T) {
	nodes := newTestCluster(t, 2, Config{Workers: 1})
	a, b := nodes[0], nodes[1]
	ctx := context.Background()
	var seed uint64
	for s := uint64(1); s <= 200 && seed == 0; s++ {
		if ownerCounts(t, []string{a.url, b.url}, []uint64{s})[b.url] == 2 {
			seed = s
		}
	}
	if seed == 0 {
		t.Fatal("no seed in 1..200 puts both cells on node B")
	}
	started := make(chan int, 1)
	release := make(chan struct{})
	mustUnblock(t, release)
	a.srv.Submit(blockerSpec(started, release), scenario.RunOptions{})
	<-started

	rr, err := a.client.RunAsync(ctx, RunRequest{Spec: json.RawMessage(fastSpec), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	// findView returns the id of a run on nd matching the predicate.
	findView := func(nd *testNode, what string, match func(*view) bool) string {
		var id string
		waitFor(t, what, func() bool {
			nd.srv.mu.Lock()
			defer nd.srv.mu.Unlock()
			for vid, v := range nd.srv.views {
				if v.kind == runKind && match(v) {
					id = vid
				}
			}
			return id != ""
		})
		return id
	}
	fwd := findView(b, "the simulate_on forward on B", func(v *view) bool { return v.noFwd && v.simOn == a.url })
	back := findView(a, "the delegated run on A", func(v *view) bool { return v.noFwd && v.simOn == "" })

	if err := rr.Cancel(ctx); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for _, hop := range []struct {
		nd *testNode
		id string
	}{{b, fwd}, {a, back}} {
		st, _ := (&RemoteRun{c: hop.nd.client, ID: hop.id}).Wait(wctx)
		if st == nil || st.Status != StatusCanceled {
			t.Errorf("run %s on %s after the cancel on A: %+v, want canceled", hop.id, hop.nd.url, st)
		}
	}
}

// TestDelegationFallsBackWhenPeerDown: a node that owns every cell of a
// run plans part of it onto its peer; with the peer down the delegation
// retries once, degrades to local simulation, and the node still answers
// and persists every cell.
func TestDelegationFallsBackWhenPeerDown(t *testing.T) {
	nodes := newTestCluster(t, 2, Config{Workers: 2, PeerTimeout: 500 * time.Millisecond}, openStore(t, t.TempDir()), openStore(t, t.TempDir()))
	a, b := nodes[0], nodes[1]
	seed := seedOwnedBy(t, nodes, a.url)
	b.http.Close()

	ctx := context.Background()
	st, err := a.client.Run(ctx, RunRequest{Spec: json.RawMessage(multiSpec), Seed: seed})
	if err != nil || st.Status != StatusDone {
		t.Fatalf("run did not survive the dead peer: %v %+v", err, st)
	}
	m, _ := a.client.Metrics(ctx)
	if m.SimsCompleted != 4 || m.DiskPuts != 4 || m.CellsDelegated != 0 {
		t.Errorf("A: %d sims, %d disk puts, %d delegated; want 4, 4, 0", m.SimsCompleted, m.DiskPuts, m.CellsDelegated)
	}
	if m.PeerFallbacks == 0 || m.PeerRetries == 0 {
		t.Errorf("no fallback/retry recorded: %+v", m)
	}
	if m.QueueDepth != 0 {
		t.Errorf("queue depth %d after fallback drain, want 0", m.QueueDepth)
	}
}

// TestSimulateOnValidation: simulate_on is a peer-forward field. It is
// refused with 400 and the usual error body outside cluster mode, without
// no_forward, or naming anything but a ring member — so no client can
// make a node call an arbitrary URL.
func TestSimulateOnValidation(t *testing.T) {
	nodes := newTestCluster(t, 2, Config{Workers: 2})
	a, b := nodes[0], nodes[1]
	_, solo := newTestService(t, Config{Workers: 2})
	post := func(base string, req RunRequest) (int, errorBody) {
		t.Helper()
		req.Spec = json.RawMessage(fastSpec)
		data, _ := json.Marshal(req)
		resp, err := http.Post(base+"/runs", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body errorBody
		json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}
	for _, tc := range []struct {
		name, base string
		req        RunRequest
		want       string
	}{
		{"cluster mode off", solo.base, RunRequest{NoForward: true, SimulateOn: b.url}, "simulate_on needs cluster mode"},
		{"without no_forward", a.url, RunRequest{SimulateOn: b.url}, "simulate_on needs no_forward"},
		{"not a ring member", a.url, RunRequest{NoForward: true, SimulateOn: "http://127.0.0.1:1"}, "is not a ring member"},
		{"not a URL", a.url, RunRequest{NoForward: true, SimulateOn: "::"}, "is not a ring member"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, body := post(tc.base, tc.req)
			if code != http.StatusBadRequest || !strings.Contains(body.Error, tc.want) {
				t.Errorf("HTTP %d %q, want 400 containing %q", code, body.Error, tc.want)
			}
		})
	}
	if code, body := post(a.url, RunRequest{NoForward: true, SimulateOn: b.url + "/"}); code >= 400 {
		t.Errorf("a ring member (trailing slash) was refused: HTTP %d %q", code, body.Error)
	}
}
