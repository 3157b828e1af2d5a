package service

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"react/internal/obs"
	"react/internal/scenario"
	"react/internal/sim"
)

// This file is the service's cluster mode: a static peer ring sharding the
// content-addressed cell cache across reactd nodes. Ownership is rendezvous
// (highest-random-weight) hashing over a cell's fingerprint — every node
// computes the same owner from the same peer list, no coordination, and
// removing a peer only reassigns that peer's cells. Any node accepts a
// run, sweep, or exploration; cells it does not own are fanned out to
// their owners over the ordinary HTTP API as no-forward run submissions,
// one per (owner, spec, seed, dt) batch group, so remote fan-out keeps the
// one-trace-pass-per-seed batching the local scheduler has. The owner
// answers from its memory cache, its disk tier, or by simulating; results
// proxy back into this node's view assembly as ordinary cell completions.
// An unreachable owner degrades to local simulation (per-request timeout
// plus a single retry), so a dead peer costs latency and duplicated work,
// never availability.
//
// Cells that cannot travel stay local: unfingerprintable specs (Go-only
// constructors), Loaded traces (no JSON encoding), and recorded runs
// (RecordDT is not expressible in a RunRequest, and sample streams are
// not part of the wire cell result anyway).

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

// --- peer fan-out scheduling ---

// startPeerGroup fans one batch-key group's non-owned cells out to their
// owner. Members sharing a spec travel in one run submission (the owner's
// scheduler then batches them into one trace pass); members of distinct
// specs — exploration probes with per-point derived specs — go one
// submission each. Called with s.mu held.
func (s *Server) startPeerGroup(owner string, members []pendingCell, opt scenario.RunOptions) {
	var specs []*scenario.Spec
	bySpec := map[*scenario.Spec][]pendingCell{}
	for _, p := range members {
		if _, ok := bySpec[p.spec]; !ok {
			specs = append(specs, p.spec)
		}
		bySpec[p.spec] = append(bySpec[p.spec], p)
	}
	for _, sp := range specs {
		s.startPeerBatch(owner, sp, bySpec[sp], opt)
	}
}

// startPeerBatch submits one group of same-spec cells to their owner and
// feeds the results back in as cell completions. Each member's cancel
// releases only that member; when every member is released the fetch is
// abandoned and runOnPeer cancels the owner's run, best-effort. Transport-level
// failure retries once and then degrades to local simulation — the cells
// re-enter the local scheduler as one batch. Called with s.mu held.
func (s *Server) startPeerBatch(owner string, spec *scenario.Spec, group []pendingCell, opt scenario.RunOptions) {
	ctx, cancel := context.WithCancel(s.ctx)
	remaining := int64(len(group))
	for _, p := range group {
		var once sync.Once
		p.c.cancel = func() {
			once.Do(func() {
				if atomic.AddInt64(&remaining, -1) == 0 {
					cancel()
				}
			})
		}
	}
	s.cellsQueued.Add(uint64(len(group)))
	s.jobs.Add(1)
	go func() {
		defer s.jobs.Done()
		defer cancel()
		// The peer span carries the view's trace across the wire: its
		// context rides the forwarded submission's traceparent header, so
		// the owner's run/batch/sim spans join this trace as its children.
		pspan := s.spans.Start(group[0].tctx, "peer", s.node,
			map[string]string{"peer": owner, "cells": fmt.Sprint(len(group))})
		pctx := obs.ContextWithSpan(ctx, pspan.Context())
		results, cellErrs, err := s.fetchFromPeer(pctx, owner, spec, group, opt)
		pspan.End(err)
		switch {
		case err == nil:
			s.peerCells.Add(uint64(len(group)))
			for _, p := range group {
				name := p.spec.Buffers[p.i].DisplayName()
				if msg, bad := cellErrs[name]; bad {
					s.completeCell(p.c, sim.Result{}, fmt.Errorf("peer %s: %s", owner, msg), cellFromPeer, 0, sim.CellStats{})
					continue
				}
				s.completeCell(p.c, results[name], nil, cellFromPeer, 0, sim.CellStats{})
			}
		case ctx.Err() != nil:
			// Released by every view (or the server is closing).
			for _, p := range group {
				s.completeCell(p.c, sim.Result{}, context.Canceled, cellFromPeer, 0, sim.CellStats{})
			}
		default:
			// The owner is unreachable: degrade to local simulation. Members
			// nobody wants anymore are finished as cancelled; the rest
			// re-enter the scheduler as one batch (handing the queue
			// accounting over to startBatch with them).
			s.peerFallbacks.Add(1)
			var live, dead []pendingCell
			s.mu.Lock()
			for _, p := range group {
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
				s.completeCell(p.c, sim.Result{}, context.Canceled, cellFromPeer, 0, sim.CellStats{})
			}
		}
	}()
}

// fetchFromPeer runs one same-spec cell group on its owner through the
// public API and maps the owner's terminal run status back onto buffer
// display names. The error return is transport-level only (unreachable,
// timed out, remotely cancelled) — the signal to retry and then degrade;
// per-cell simulation errors come back in cellErrs and are terminal.
func (s *Server) fetchFromPeer(ctx context.Context, owner string, spec *scenario.Spec, group []pendingCell, opt scenario.RunOptions) (map[string]sim.Result, map[string]string, error) {
	client := s.cluster.clients[owner]
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
	// NoForward breaks forwarding cycles: whatever the owner's own ring
	// config says, a forwarded cell is answered where it lands.
	req := RunRequest{Spec: data, Seed: opt.Seed, DT: opt.DT, NoForward: true}

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
			results[cs.Buffer] = fromCellResult(cs.Result, cs.Buffer)
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
// the owner — is a transport-level error so the caller retries afresh.
// When ctx ends first, the fetch is abandoned and the owner's run is
// cancelled, so the owner stops simulating cells nobody wants. The run is
// private to this forward on the owner (submit), so the cancel touches no
// one else's run.
func (s *Server) runOnPeer(ctx context.Context, client *Client, req RunRequest) (*RunStatus, error) {
	// The submission and the cancel run under the server's lifetime, not
	// the fetch's: a run the owner accepted must have a known id to cancel,
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
		// cells then re-simulate on the owner's next miss, and no result
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
