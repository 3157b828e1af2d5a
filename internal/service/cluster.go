package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/url"
	"slices"
	"sort"
	"strings"
	"time"

	"react/internal/obs"
	"react/internal/scenario"
	"react/internal/sim"
)

// This file is the service's cluster mode: a static peer ring sharding the
// content-addressed cell cache across reactd nodes. It separates who owns a
// cell from where the cell is simulated.
//
// Ownership is rendezvous (highest-random-weight) hashing over a cell's
// fingerprint: every node computes the same owner from the same peer list,
// no coordination, and removing a peer only reassigns that peer's cells.
// The owner is where a cell is looked up and persisted. Any node accepts a
// run, sweep, or exploration; cells it does not own go to their owners over
// the ordinary HTTP API as no-forward run submissions, one per (peer
// route, spec, seed, dt) batch group, so remote fan-out keeps the
// one-trace-pass-per-seed batching the local scheduler has. The owner
// answers from its memory cache, its disk tier, or by simulating; results
// proxy back into this node's view assembly as ordinary cell completions.
//
// Placement is decided per flush, over the flush's travelling cells
// (planSims). Each cell is costed by its buffer kind (simWeight), every
// cell starts on its owner, and a cell moves to the least-loaded member
// only when that lowers the busier of the two members' planned loads; a
// tie keeps the owner. A cell placed off its owner travels one of two ways:
//
//   - this node owns it: the node sends the simulating member an ordinary
//     no-forward run (a delegation) and, when the result returns, persists
//     it as the owner;
//   - another member owns it: the forward to the owner carries
//     RunRequest.SimulateOn, and the owner answers its hits and delegates
//     its misses to that member, persisting them when they return.
//
// Every cell is still simulated once in the cluster and persisted on its
// owner; the simulating member, being an ordinary no-forward receiver,
// also keeps a copy on its own disk.
//
// An unreachable peer degrades to local simulation (per-request timeout
// plus a single retry), so a dead peer costs latency and duplicated work,
// never availability. Cells that cannot travel stay local and are not
// planned: unfingerprintable specs (Go-only constructors), Loaded traces
// (no JSON encoding), and cells of no-forward submissions.

// DefaultPeerTimeout bounds each HTTP request to a peer when
// Config.PeerTimeout is zero.
const DefaultPeerTimeout = 5 * time.Second

// peerCancelTimeout bounds the best-effort DELETE of an abandoned run on
// its owner. It needs its own bound: the fetch's context is already done.
// Closing the server cuts it short (runOnPeer), so it never holds Close.
const peerCancelTimeout = time.Second

// cluster is the resolved static ring.
type cluster struct {
	self    string             // this node's advertised base URL
	members []string           // the full ring, self included, sorted
	others  []string           // members minus self, sorted
	clients map[string]*Client // one per other member
}

// newCluster validates and normalizes the peer list. Self is added to the
// ring if absent; a ring of one (or an empty peer list) means cluster mode
// is off and nil is returned. Every node must be configured with the same
// member URL strings — ownership is a pure function of (member set, cell
// fingerprint), and nodes that disagree on the spelling of a URL disagree
// on the shards.
func newCluster(self string, peers []string, timeout time.Duration) (*cluster, error) {
	if len(peers) == 0 {
		return nil, nil
	}
	if self == "" {
		return nil, fmt.Errorf("service: cluster mode needs the node's own advertised URL (Config.Self) to locate itself in the peer ring")
	}
	selfURL, err := normalizePeerURL(self)
	if err != nil {
		return nil, err
	}
	set := map[string]bool{selfURL: true}
	for _, p := range peers {
		u, err := normalizePeerURL(p)
		if err != nil {
			return nil, err
		}
		set[u] = true
	}
	if len(set) < 2 {
		return nil, nil // a ring of one is just a single node
	}
	cl := &cluster{self: selfURL, clients: map[string]*Client{}}
	for m := range set {
		cl.members = append(cl.members, m)
	}
	sort.Strings(cl.members)
	if timeout <= 0 {
		timeout = DefaultPeerTimeout
	}
	for _, m := range cl.members {
		if m == cl.self {
			continue
		}
		pc, err := newPeerClient(m, timeout)
		if err != nil {
			return nil, err // unreachable: m is already normalized
		}
		cl.others = append(cl.others, m)
		cl.clients[m] = pc
	}
	return cl, nil
}

// normalizePeerURL canonicalizes one ring member URL.
func normalizePeerURL(raw string) (string, error) {
	u, err := url.Parse(strings.TrimSpace(raw))
	if err != nil {
		return "", fmt.Errorf("service: peer %q: %w", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("service: peer %q: want an http(s) base URL", raw)
	}
	return strings.TrimRight(u.String(), "/"), nil
}

// validSimulateOn checks a run request's SimulateOn and returns it
// normalized ("" when unset). The field is for peer forwards only: it
// needs cluster mode and no_forward, and it must name a ring member, so an
// outside client cannot make a node call an arbitrary URL.
func (s *Server) validSimulateOn(rr *RunRequest) (string, error) {
	if rr.SimulateOn == "" {
		return "", nil
	}
	switch {
	case s.cluster == nil:
		return "", errors.New("simulate_on needs cluster mode")
	case !rr.NoForward:
		return "", errors.New("simulate_on needs no_forward")
	}
	u, err := normalizePeerURL(rr.SimulateOn)
	if err != nil || !slices.Contains(s.cluster.members, u) {
		return "", fmt.Errorf("simulate_on %q is not a ring member", rr.SimulateOn)
	}
	return u, nil
}

// owner returns the ring member owning a fingerprint: the member whose
// rendezvous weight for it is highest.
func (cl *cluster) owner(fp string) string {
	best, bestW := "", uint64(0)
	for _, m := range cl.members {
		h := fnv.New64a()
		io.WriteString(h, m)
		h.Write([]byte{0})
		io.WriteString(h, fp)
		if w := h.Sum64(); best == "" || w > bestW {
			best, bestW = m, w
		}
	}
	return best
}

// --- placement ---

// simWeight is a cell's planned simulation cost, in units of one static
// capacitor cell. The ratios follow perfbench's per-layer rows
// (buffer.tick_ns, sim.cell_tick_ns): a static preset or Dewdrop ticks in
// 42–50 ns, Capybara in about 100 ns, and REACT's bank fabric and Morphy's
// switched array in 210–290 ns, and every cell adds the same 20–30 ns of
// device, workload and harvest step, which pulls the ratios to about
// 1 : 2 : 4. Only the ratios matter: the planner compares sums of weights.
//
//	static presets, custom static, Dewdrop   1
//	Capybara                                 2
//	REACT (preset or react block), Morphy     4
func simWeight(bs scenario.BufferSpec) int {
	if bs.React != nil {
		return 4
	}
	switch bs.Preset {
	case "REACT", "Morphy":
		return 4
	case "Capybara":
		return 2
	}
	return 1
}

// planSims places a flush's travelling cells: owners[i] is cell i's ring
// owner and weights[i] its simWeight, and the result is the member that
// simulates each cell. Every cell starts on its owner. Cells are then
// visited heaviest first (flush order among equals), and a cell moves to
// the least-loaded member (the first in ring order among equals) only when
// that lowers the larger of the two members' planned loads — the owner's,
// which then exceeds the receiver's by more than the cell's weight. A tie
// keeps the cell on its owner. The plan is a pure function of its
// arguments, so a flush is placed the same way every time.
func planSims(members, owners []string, weights []int) []string {
	load := make(map[string]int, len(members))
	for i, o := range owners {
		load[o] += weights[i]
	}
	order := make([]int, len(owners))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	sims := slices.Clone(owners)
	for _, i := range order {
		least := members[0]
		for _, m := range members[1:] {
			if load[m] < load[least] {
				least = m
			}
		}
		o, w := owners[i], weights[i]
		if least != o && load[least]+w < load[o] {
			load[o] -= w
			load[least] += w
			sims[i] = least
		}
	}
	return sims
}

// place fills in where each of a flush's pending cells is owned and
// simulated. Travelling cells get their ring owner and the member planSims
// picks, with load carried across the flush's batch-key groups. Cells that
// do not travel are owned here: a pinned cell (a no-forward submission's,
// or one on a Loaded trace) also simulates here, and a cell of a
// no-forward submission naming SimulateOn simulates on that member.
// Called with s.mu held.
func (cl *cluster) place(groups [][]pendingCell) {
	var travel []*pendingCell
	var owners []string
	var weights []int
	for _, g := range groups {
		for i := range g {
			p := &g[i]
			if p.noFwd || p.spec.Trace.Loaded != nil {
				p.owner = cl.self
				if p.simOn == "" {
					p.simOn = cl.self
				}
				continue
			}
			p.owner = cl.owner(p.c.fp)
			travel = append(travel, p)
			owners = append(owners, p.owner)
			weights = append(weights, simWeight(p.spec.Buffers[p.i]))
		}
	}
	for i, m := range planSims(cl.members, owners, weights) {
		travel[i].simOn = m
	}
}

// peerRoute is one way a placed cell leaves this node: the member a
// no-forward run is sent to, the member that run simulates on
// (RunRequest.SimulateOn, "" for the receiver itself), and whether this
// node owns the cells — a delegation, whose results it persists.
type peerRoute struct {
	to, simOn string
	delegate  bool
}

// route maps a placed cell to its peer route; false means simulate here.
func (cl *cluster) route(p pendingCell) (peerRoute, bool) {
	switch {
	case p.owner == cl.self && p.simOn == cl.self:
		return peerRoute{}, false
	case p.owner == cl.self:
		return peerRoute{to: p.simOn, delegate: true}, true
	case p.simOn == p.owner:
		return peerRoute{to: p.owner}, true
	default:
		return peerRoute{to: p.owner, simOn: p.simOn}, true
	}
}

// --- peer fan-out scheduling ---

// startPeerGroup sends one batch-key group's cells along one peer route.
// Members sharing a spec travel in one run submission (the receiver's
// scheduler then batches them into one trace pass); members of distinct
// specs — exploration probes with per-point derived specs — go one
// submission each. Called with s.mu held.
func (s *Server) startPeerGroup(r peerRoute, members []pendingCell, opt scenario.RunOptions) {
	var specs []*scenario.Spec
	bySpec := map[*scenario.Spec][]pendingCell{}
	for _, p := range members {
		if _, ok := bySpec[p.spec]; !ok {
			specs = append(specs, p.spec)
		}
		bySpec[p.spec] = append(bySpec[p.spec], p)
	}
	for _, sp := range specs {
		s.startPeerBatch(r, sp, bySpec[sp], opt)
	}
}

// startPeerBatch submits one group of same-spec cells along a peer route
// and feeds the results back in as cell completions — delegated ones,
// which persist here, when this node owns the cells. Each member's cancel
// releases only that member; when every member is released the fetch is
// abandoned and runOnPeer cancels the receiver's run, best-effort, which
// in turn abandons any delegation the receiver made for it. Transport-level
// failure retries once and then degrades to local simulation — the cells
// re-enter the local scheduler as one batch. Called with s.mu held.
func (s *Server) startPeerBatch(r peerRoute, spec *scenario.Spec, group []pendingCell, opt scenario.RunOptions) {
	ctx, cancel := s.memberRelease(group)
	for _, p := range group {
		p.c.awaitsPeer = true
	}
	s.cellsQueued.Add(uint64(len(group)))
	// A forward's span names its owner; a delegation's is the owner-side
	// record of where its cells ran.
	origin := cellFromPeer
	span, attrs := "peer", map[string]string{"peer": r.to, "cells": fmt.Sprint(len(group))}
	if r.simOn != "" {
		attrs["simulate_on"] = r.simOn
	}
	if r.delegate {
		origin = cellDelegated
		span, attrs = "delegate", map[string]string{"node": r.to, "cells": fmt.Sprint(len(group))}
	}
	s.jobs.Add(1)
	go func() {
		defer s.jobs.Done()
		defer cancel()
		// The span carries the view's trace across the wire: its context
		// rides the forwarded submission's traceparent header, so the
		// receiver's run/batch/sim spans join this trace as its children.
		pspan := s.spans.Start(group[0].tctx, span, s.node, attrs)
		pctx := obs.ContextWithSpan(ctx, pspan.Context())
		results, cellErrs, err := s.fetchFromPeer(pctx, r, spec, group, opt)
		pspan.End(err)
		switch {
		case err == nil:
			s.peerCells.Add(uint64(len(group)))
			for _, p := range group {
				name := p.spec.Buffers[p.i].DisplayName()
				if msg, bad := cellErrs[name]; bad {
					s.completeCell(p.c, sim.Result{}, fmt.Errorf("peer %s: %s", r.to, msg), origin, 0, sim.CellStats{})
					continue
				}
				s.completeCell(p.c, results[name], nil, origin, 0, sim.CellStats{})
			}
		case ctx.Err() != nil:
			// Released by every view (or the server is closing).
			for _, p := range group {
				s.completeCell(p.c, sim.Result{}, context.Canceled, origin, 0, sim.CellStats{})
			}
		default:
			// The peer is unreachable: degrade to local simulation. Members
			// nobody wants anymore are finished as cancelled; the rest
			// re-enter the scheduler as one batch (handing the queue
			// accounting over to startBatch with them).
			s.peerFallbacks.Add(1)
			var live, dead []pendingCell
			s.mu.Lock()
			for _, p := range group {
				p.c.awaitsPeer = false
				if p.c.refs > 0 {
					live = append(live, p)
				} else {
					dead = append(dead, p)
				}
			}
			s.cellsQueued.Add(^uint64(uint64(len(live)) - 1)) // -len(live)
			if len(live) > 0 {
				s.startBatch(live, opt)
			}
			s.mu.Unlock()
			for _, p := range dead {
				s.completeCell(p.c, sim.Result{}, context.Canceled, origin, 0, sim.CellStats{})
			}
		}
	}()
}

// fetchFromPeer runs one same-spec cell group along a peer route through
// the public API and maps the receiver's terminal run status back onto
// buffer display names. The error return is transport-level only (unreachable,
// timed out, remotely cancelled) — the signal to retry and then degrade;
// per-cell simulation errors come back in cellErrs and are terminal.
func (s *Server) fetchFromPeer(ctx context.Context, r peerRoute, spec *scenario.Spec, group []pendingCell, opt scenario.RunOptions) (map[string]sim.Result, map[string]string, error) {
	client := s.cluster.clients[r.to]
	derived := spec
	if len(group) != len(spec.Buffers) {
		derived = spec.Clone()
		derived.Buffers = derived.Buffers[:0]
		for _, p := range group {
			derived.Buffers = append(derived.Buffers, spec.Buffers[p.i])
		}
	}
	data, err := json.Marshal(derived)
	if err != nil {
		return nil, map[string]string{derived.Buffers[0].DisplayName(): err.Error()}, nil
	}
	// NoForward breaks forwarding cycles: whatever the receiver's own ring
	// config says, a forwarded cell is answered where it lands — or, with
	// SimulateOn, by the one delegation hop the receiver makes for it.
	req := RunRequest{Spec: data, Seed: opt.Seed, DT: opt.DT, NoForward: true, SimulateOn: r.simOn}

	s.peerRequests.Add(1)
	began := time.Now()
	st, err := s.runOnPeer(ctx, client, req)
	if err != nil && ctx.Err() == nil {
		s.peerRetries.Add(1)
		st, err = s.runOnPeer(ctx, client, req)
	}
	if err != nil {
		return nil, nil, err
	}
	s.hPeerRTT.Observe(time.Since(began).Seconds())
	results := map[string]sim.Result{}
	cellErrs := map[string]string{}
	for _, cs := range st.Cells {
		switch {
		case cs.Error != "":
			cellErrs[cs.Buffer] = cs.Error
		case cs.Result != nil:
			results[cs.Buffer] = fromCellResult(cs.Result, cs.Buffer, spec.Workload.Bench)
		}
	}
	for _, p := range group {
		name := p.spec.Buffers[p.i].DisplayName()
		if _, ok := results[name]; !ok {
			if _, bad := cellErrs[name]; !bad {
				cellErrs[name] = fmt.Sprintf("no result for buffer %q in the peer's response", name)
			}
		}
	}
	return results, cellErrs, nil
}

// runOnPeer submits one run to a peer and waits for a terminal status. A
// remotely failed run is a valid terminal answer (its per-cell errors are
// authoritative); a remotely cancelled one — someone deleted our view on
// the peer — is a transport-level error so the caller retries afresh.
// When ctx ends first, the fetch is abandoned and the peer's run is
// cancelled, so the peer stops simulating cells nobody wants (and, if it
// delegated them, abandons its own delegation the same way). The run is
// private to this forward on the peer (submit), so the cancel touches no
// one else's run.
func (s *Server) runOnPeer(ctx context.Context, client *Client, req RunRequest) (*RunStatus, error) {
	// The submission and the cancel run under the server's lifetime, not
	// the fetch's: a run the peer accepted must have a known id to cancel,
	// so abandoning the fetch does not cut the submission short. Closing
	// the server does, and skips the cancel.
	sctx, stop := context.WithCancel(context.WithoutCancel(ctx))
	defer stop()
	defer context.AfterFunc(s.ctx, stop)()
	rr, err := client.RunAsync(sctx, req)
	if err != nil {
		return nil, err
	}
	st, werr := rr.Wait(ctx)
	if ctx.Err() != nil && (st == nil || !Terminal(st.Status)) {
		// DELETE of a run that finished meanwhile forgets it instead; its
		// cells then re-simulate on the peer's next miss, and no result
		// changes.
		if sctx.Err() == nil {
			cctx, cancel := context.WithTimeout(sctx, peerCancelTimeout)
			rr.Cancel(cctx)
			cancel()
		}
		return nil, ctx.Err()
	}
	if st == nil {
		return nil, werr
	}
	if st.Status == StatusCanceled {
		return nil, fmt.Errorf("service: peer cancelled run %s underfoot", st.ID)
	}
	return st, nil
}
