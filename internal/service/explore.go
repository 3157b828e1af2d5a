package service

import (
	"context"
	"fmt"

	"react/internal/explore"
	"react/internal/obs"
	"react/internal/sim"
)

// This file is the service face of the design-space exploration subsystem
// (internal/explore): POST /explorations runs a declarative explore.Space
// asynchronously, with every probed point attached to the shared
// content-addressed cell cache. Explorations therefore dedupe against each
// other, against sweeps, and against plain runs — a bisection submitted
// after a covering grid touches only cached addresses and performs zero
// new simulations. GET serves partial per-cell results while the strategy
// is still probing; the assembled result (points, bests, frontiers)
// appears when it drains.

// SubmitExplore resolves and launches an exploration, returning its
// submission view. It is the Go-level core of POST /explorations; a space
// that fails to resolve returns the error synchronously and nothing is
// tracked.
func (s *Server) SubmitExplore(sp *explore.Space) (*ExploreStatus, error) {
	return s.submitExplore(sp, obs.SpanContext{})
}

// submitExplore is SubmitExplore with the submitter's span context.
func (s *Server) submitExplore(sp *explore.Space, parent obs.SpanContext) (*ExploreStatus, error) {
	plan, err := sp.Resolve()
	if err != nil {
		return nil, err
	}
	s.explorations.Add(1)

	s.mu.Lock()
	v := s.newViewLocked(exploreKind, plan.Base, parent)
	v.plan = plan
	v.seeds = plan.Seeds
	vctx, cancel := context.WithCancel(s.ctx)
	v.vcancel = cancel
	s.views[v.id] = v
	s.mu.Unlock()

	s.jobs.Add(1)
	go func() {
		defer s.jobs.Done()
		defer cancel()
		res, err := plan.Run(vctx, s.exploreEvaluator(v, vctx))
		s.mu.Lock()
		v.mu.Lock()
		v.expResult, v.expErr = res, err
		v.mu.Unlock()
		s.finalizeLocked(v)
		s.mu.Unlock()
	}()
	return exploreStatus(v), nil
}

// exploreEvaluator adapts the shared cell cache into the exploration
// engine's batch evaluator: each probed cell is attached exactly like a
// run or sweep cell — cached, coalesced with in-flight work, or freshly
// scheduled over the global semaphore — and the batch completes when every
// attached cell does.
func (s *Server) exploreEvaluator(v *view, vctx context.Context) explore.Evaluator {
	return func(ctx context.Context, cells []explore.Cell) ([]sim.Result, error) {
		s.mu.Lock()
		if v.detached || vctx.Err() != nil {
			// The view was deleted (or the server is closing): don't attach
			// cells that could never be released.
			s.mu.Unlock()
			return nil, context.Canceled
		}
		attached := make([]*cell, len(cells))
		points := map[int]bool{}
		for i, ec := range cells {
			key := cellKey{Seed: ec.Seed, DT: ec.Spec.ResolveDT(ec.Opt.DT), Buffer: ec.Spec.Buffers[0].DisplayName()}
			attached[i] = s.addCell(v, ec.Spec, 0, ec.Opt, key, ec.Point)
			points[ec.Point] = true
		}
		s.exploreCells.Add(uint64(len(cells)))
		s.explorePoints.Add(uint64(len(points)))
		s.flushPendingLocked()
		s.mu.Unlock()

		out := make([]sim.Result, len(cells))
		for i, c := range attached {
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if c.err != "" {
				if c.err == context.Canceled.Error() {
					return nil, context.Canceled
				}
				return nil, fmt.Errorf("%s seed %d: %s", c.buffer, cells[i].Seed, c.err)
			}
			out[i] = c.res
		}
		return out, nil
	}
}

// exploreStatus translates an exploration view into its wire shape. The
// cell slots grow while the strategy probes; the snapshot takes whatever
// has been attached so far.
func exploreStatus(v *view) *ExploreStatus {
	sn := v.snapshot()
	st := &ExploreStatus{
		ID:             v.id,
		Scenario:       v.plan.Base.Name,
		Strategy:       v.plan.Strategy,
		TraceID:        v.tctx.TraceID.String(),
		Status:         sn.status,
		Error:          sn.errMsg,
		Created:        v.created,
		Finished:       sn.finishedAt(),
		Progress:       progressOf(sn.cells),
		Seeds:          v.plan.Seeds,
		TotalPoints:    len(v.plan.Points),
		CachedCells:    sn.cachedCells,
		CoalescedCells: sn.coalescedCells,
		NewCells:       sn.newCells,
		Cells:          make([]ExploreCellStatus, len(sn.cells)),
	}
	doneBy := map[int]int{}
	for i, c := range sn.cells {
		cs := cellStatus(c)
		k, p := sn.keys[i], sn.points[i]
		st.Cells[i] = ExploreCellStatus{Point: p, Buffer: k.Buffer, Seed: k.Seed, DT: k.DT, Done: cs.Done, Error: cs.Error, Result: cs.Result}
		if cs.Done && cs.Error == "" {
			doneBy[p]++
		}
	}
	for _, n := range doneBy {
		if n == len(st.Seeds) {
			st.EvaluatedPoints++
		}
	}
	if st.Status == StatusDone {
		st.Result = sn.expResult
	}
	return st
}
