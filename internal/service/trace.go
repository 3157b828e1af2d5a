package service

import (
	"net/http"
	"sort"
	"sync"

	"react/internal/obs"
)

// This file serves the request-tracing endpoints. Every submission mints a
// root span (or adopts the submitter's traceparent), batch groups and cell
// simulations nest under it, and peer fan-out carries the context in the
// traceparent header — so a cross-node exploration is one trace whose spans
// are scattered over the ring. The per-view endpoints reassemble it:
// this node's spans, plus every peer's (GET /traces/{id}, the flat
// primitive), deduplicated by span id and built into a tree.

// handleTraceRaw serves this node's raw spans for a trace id: the peer
// merge primitive, also handy for debugging a single node.
func (s *Server) handleTraceRaw(w http.ResponseWriter, req *http.Request) {
	tid, ok := obs.ParseTraceID(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusBadRequest, "malformed trace id %q (want 32 hex digits)", req.PathValue("id"))
		return
	}
	spans, dropped := s.spans.Spans(tid)
	writeJSON(w, http.StatusOK, TraceResponse{
		TraceID: tid.String(),
		Spans:   spans,
		Dropped: dropped,
	})
}

// handleViewTrace serves a view's assembled span tree, merged across
// cluster peers so forwarded work appears under the originating trace.
func (s *Server) handleViewTrace(kind *viewKind) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		v := s.lookupView(w, req, kind)
		if v == nil {
			return
		}
		writeJSON(w, http.StatusOK, s.assembleTrace(req, v.tctx.TraceID))
	}
}

// assembleTrace merges this node's spans for tid with every peer's and
// builds the tree. Peer fetches run concurrently under the request context
// (each already bounded by the peer client's per-request timeout); an
// unreachable peer degrades the tree, never the response.
func (s *Server) assembleTrace(req *http.Request, tid obs.TraceID) TraceResponse {
	local, dropped := s.spans.Spans(tid)
	resp := TraceResponse{TraceID: tid.String(), Dropped: dropped}
	spans := local
	if s.cluster != nil {
		var mu sync.Mutex
		var wg sync.WaitGroup
		for _, peer := range s.cluster.others {
			client := s.cluster.clients[peer]
			wg.Add(1)
			go func(peer string) {
				defer wg.Done()
				remote, err := client.TraceSpans(req.Context(), tid.String())
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					resp.PeersFailed = append(resp.PeersFailed, peer)
					return
				}
				spans = append(spans, remote.Spans...)
				resp.Dropped += remote.Dropped
			}(peer)
		}
		wg.Wait()
		sort.Strings(resp.PeersFailed)
	}
	// Deduplicate by span id: a peer may echo spans this node already has
	// (or two peers may both have fetched from a third).
	seen := make(map[string]bool, len(spans))
	merged := spans[:0]
	for _, sp := range spans {
		if seen[sp.SpanID] {
			continue
		}
		seen[sp.SpanID] = true
		merged = append(merged, sp)
	}
	resp.Roots = obs.BuildTree(merged)
	return resp
}
