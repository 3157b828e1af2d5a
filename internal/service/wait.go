package service

import (
	"context"
	"fmt"
	"net/url"
	"strconv"
	"time"
)

// This file is the long-poll side of GET /{runs,sweeps,explorations}/{id}.
// With ?wait=<dur> the server holds the request until the view has news,
// then answers with exactly the body a plain GET would write, so a client
// learns that a view finished when it finishes instead of at its next poll
// step. The query is optional; a plain GET is unchanged.
//
// Every GET of a view carries the view's progress version in the
// X-View-Version header. ?since=<version> makes any change news: the GET
// returns once the version differs. Without since only the end of the view
// is news — terminal status or a DELETE — which is what Client.Wait asks
// for. Either way the hold also ends when the wait expires, when the
// request's context ends, or when the server releases its waiters for
// shutdown.
//
// Cells do not know their views, so waking is one server-wide broadcast: a
// channel closed (and cleared) wherever view state changes under Server.mu
// — a cell attaching or finishing, a view cancelled or finalized. Each
// woken waiter re-checks its own view and parks again if nothing it cares
// about moved. The channel sits in an atomic pointer, so neither the wake
// nor the re-arm takes Server.mu, and no lock is held while parked.

// viewVersionHeader carries a view's progress version on every GET of it.
const viewVersionHeader = "X-View-Version"

// maxViewWait caps one long-poll; a longer ?wait= is clamped to it. It
// stays well inside reactd's 120 s write timeout.
const maxViewWait = 60 * time.Second

// maxViewWaiters caps the long-polls parked at once. Past the cap a GET
// with ?wait= answers at once, as a plain poll, and counts in
// react_view_waits_refused_total.
const maxViewWaiters = 1024

// parseWait reads a GET's long-poll query. wait is a Go duration
// ("250ms", "15s"), clamped to maxViewWait; absent or zero means answer at
// once. since, when present, is a version from an earlier answer.
func parseWait(q url.Values) (wait time.Duration, since string, hasSince bool, err error) {
	if raw := q.Get("wait"); raw != "" {
		wait, err = time.ParseDuration(raw)
		if err != nil || wait < 0 {
			return 0, "", false, fmt.Errorf("wait %q: want a non-negative duration such as 250ms or 15s", raw)
		}
		wait = min(wait, maxViewWait)
	}
	since, hasSince = q.Get("since"), q.Has("since")
	return wait, since, hasSince, nil
}

// version reads the view's progress version: cells attached plus cells
// finished, plus one once cancelled and one once terminal. Every term only
// grows, so every change of reportable state moves it. Computing it scans
// the view's cells, so the result is memoized per broadcast: the waiters
// one notify wakes on a view share one scan. A read racing a change before
// its notify may get the version from just before it — never a version
// the status body does not carry — and the notify then wakes any waiter
// it left parked.
func (s *Server) version(v *view) string {
	v.mu.Lock()
	defer v.mu.Unlock()
	gen := s.progressGen.Load()
	if v.verMemo != "" && v.verGen == gen {
		return v.verMemo
	}
	n := len(v.cells)
	for _, c := range v.cells {
		if c.terminal() {
			n++
		}
	}
	if v.canceled {
		n++
	}
	if Terminal(v.status) {
		n++
	}
	v.verGen, v.verMemo = gen, strconv.Itoa(n)
	return v.verMemo
}

// ended reports whether the view is terminal or cancelled — the news a
// long-poll without since waits for. Unlike version it needs no scan.
func (v *view) ended() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.canceled || Terminal(v.status)
}

// notify wakes every parked long-poll. It takes no lock; its callers call
// it where they change view state, under Server.mu.
func (s *Server) notify() {
	s.progressGen.Add(1)
	if ch := s.progress.Swap(nil); ch != nil {
		close(*ch)
	}
}

// progressCh returns the channel the next notify closes, installing one
// if nobody is waiting yet.
func (s *Server) progressCh() <-chan struct{} {
	for {
		if ch := s.progress.Load(); ch != nil {
			return *ch
		}
		ch := make(chan struct{})
		if s.progress.CompareAndSwap(nil, &ch) {
			return ch
		}
	}
}

// ReleaseWaiters answers every parked long-poll now and every later one at
// once, so an HTTP shutdown waits only for real requests, not for their
// waits. Register it with http.Server.RegisterOnShutdown; Close calls it
// too. It is idempotent.
func (s *Server) ReleaseWaiters() {
	s.releaseOnce.Do(func() { close(s.released) })
}

// awaitView holds a long-poll GET until v has news for it — with since,
// any other version (a cancel moves it too); without, the view ending — or
// until the wait expires, ctx ends, or the server releases its waiters.
// Past the waiter cap it returns at once.
func (s *Server) awaitView(ctx context.Context, v *view, wait time.Duration, since string, hasSince bool) {
	if s.waiters.Add(1) > int64(s.waiterCap) {
		s.waiters.Add(-1)
		s.waitsRefused.Add(1)
		return
	}
	defer s.waiters.Add(-1)
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		// Take the channel before checking, so a change that lands between
		// the check and the park still wakes this waiter.
		ch := s.progressCh()
		if hasSince {
			if s.version(v) != since {
				return
			}
		} else if v.ended() {
			return
		}
		select {
		case <-ch:
		case <-timer.C:
			return
		case <-ctx.Done():
			return
		case <-s.released:
			return
		}
	}
}
