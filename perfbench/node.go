package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"react/internal/obs"
	"react/internal/service"
	"react/internal/store"
)

// node is one in-process reactd: service.New behind a loopback listener,
// with its own disk store. The benchmark owns the HTTP server around the
// service handler, which lets it count status polls from outside.
type node struct {
	url   string
	dir   string
	st    *store.Store
	srv   *service.Server
	hs    *http.Server
	done  chan struct{}
	polls atomic.Int64 // GET /{runs,sweeps,explorations}/{id}
}

// bootNodes starts n nodes; cfg fills each node's service.Config given its
// index and every node's URL (for cluster rings).
func bootNodes(e *env, n int, cfg func(i int, urls []string) service.Config) ([]*node, error) {
	nodes := make([]*node, n)
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(lns)
			return nil, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	for i := range nodes {
		dir, err := os.MkdirTemp(e.scratch, "node-")
		if err == nil {
			nodes[i] = &node{url: urls[i], dir: dir, done: make(chan struct{})}
			nodes[i].st, err = store.Open(filepath.Join(dir, "store"))
		}
		var srv *service.Server
		if err == nil {
			c := cfg(i, urls)
			c.Store = nodes[i].st
			srv, err = service.New(c)
		}
		if err != nil {
			closeListeners(lns[i:])
			closeNodes(nodes)
			return nil, err
		}
		nd := nodes[i]
		nd.srv = srv
		nd.hs = &http.Server{Handler: nd.countPolls(srv), ReadHeaderTimeout: 10 * time.Second}
		go func(ln net.Listener) {
			defer close(nd.done)
			nd.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
		}(lns[i])
	}
	return nodes, nil
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// closeNodes shuts every started node down and waits for its goroutines.
func closeNodes(nodes []*node) {
	for _, nd := range nodes {
		if nd == nil {
			continue
		}
		if nd.hs != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			nd.hs.Shutdown(ctx)
			cancel()
			<-nd.done
		}
		if nd.srv != nil {
			nd.srv.Close()
		}
		if nd.st != nil {
			nd.st.Close()
		}
		os.RemoveAll(nd.dir)
	}
}

// countPolls counts view status polls (GET of a view, not of its trace).
func (nd *node) countPolls(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.Count(r.URL.Path, "/") == 2 &&
			(strings.HasPrefix(r.URL.Path, "/runs/") || strings.HasPrefix(r.URL.Path, "/sweeps/") || strings.HasPrefix(r.URL.Path, "/explorations/")) {
			nd.polls.Add(1)
		}
		h.ServeHTTP(w, r)
	})
}

// scrape reads a node's Prometheus exposition, checks it parses, and
// returns the samples and how long the scrape took.
func scrape(ctx context.Context, url string) (map[string]float64, time.Duration, error) {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, 0, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	m, err := obs.ParsePrometheus(resp.Body)
	return m, time.Since(t0), err
}

// fetchTrace reads one trace's spans from every node (GET /traces/{id})
// and links them into one tree.
func fetchTrace(ctx context.Context, nodes []*node, traceID string) ([]*obs.SpanTree, error) {
	var spans []obs.Span
	for _, nd := range nodes {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, nd.url+"/traces/"+traceID, nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		var tr service.TraceResponse
		err = json.NewDecoder(resp.Body).Decode(&tr)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			continue // this node recorded nothing for the trace
		}
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET /traces/%s: HTTP %d %v", traceID, resp.StatusCode, err)
		}
		if tr.Dropped > 0 {
			return nil, fmt.Errorf("trace %s: %d spans dropped", traceID, tr.Dropped)
		}
		spans = append(spans, tr.Spans...)
	}
	return obs.BuildTree(spans), nil
}

// counters is a sum of Prometheus samples over a set of nodes.
type counters map[string]float64

func scrapeAll(ctx context.Context, nodes []*node) (counters, error) {
	total := counters{}
	for _, nd := range nodes {
		m, _, err := scrape(ctx, nd.url)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			total[k] += v
		}
	}
	return total, nil
}

// delta is b − a for one series.
func (b counters) delta(a counters, key string) float64 { return b[key] - a[key] }

// histMean is the mean observation of a histogram between two scrapes, in
// the histogram's unit times scale.
func (b counters) histMean(a counters, name string, scale float64) float64 {
	n := b.delta(a, name+"_count")
	if n == 0 {
		return 0
	}
	return scale * b.delta(a, name+"_sum") / n
}

// reportServiceCounters records the service, peer, store and sim counter
// deltas between two scrapes.
func reportServiceCounters(r *report, a, b counters) {
	d := func(k string) float64 { return b.delta(a, k) }
	r.set("service.view_hits", d("react_run_cache_hits_total"), "count", 0, "whole-run cache hits")
	r.set("service.cell_hits", d("react_cell_hits_total"), "count", 0, "")
	r.set("service.cell_misses", d("react_cell_misses_total"), "count", 0, "")
	r.set("service.cell_coalesced", d("react_cell_coalesced_total"), "count", 0, "")
	r.set("service.sims", d("react_sims_completed_total"), "count", 0, "")
	r.set("service.queue_wait_ms", b.histMean(a, "react_queue_wait_seconds", 1e3), "ms", int(d("react_queue_wait_seconds_count")), "mean")
	r.set("service.cell_sim_ms", b.histMean(a, "react_cell_sim_duration_seconds", 1e3), "ms", int(d("react_cell_sim_duration_seconds_count")), "mean")
	r.set("service.batch_cells", b.histMean(a, "react_batch_cells", 1), "count", int(d("react_batch_cells_count")), "mean")
	r.set("peer.requests", d("react_peer_requests_total"), "count", 0, "")
	r.set("peer.retries", d("react_peer_retries_total"), "count", 0, "")
	r.set("peer.fallbacks", d("react_peer_fallbacks_total"), "count", 0, "")
	r.set("peer.cells", d("react_peer_cells_total"), "count", 0, "")
	r.set("peer.rtt_ms", b.histMean(a, "react_peer_rtt_seconds", 1e3), "ms", int(d("react_peer_rtt_seconds_count")), "mean")
	r.set("store.put_us", b.histMean(a, "react_disk_put_seconds", 1e6), "us", int(d("react_disk_put_seconds_count")), "mean")
	r.set("store.get_us", b.histMean(a, "react_disk_get_seconds", 1e6), "us", int(d("react_disk_get_seconds_count")), "mean")
	r.set("explore.points", d("react_explore_points_total"), "count", 0, "")
	r.set("explore.cells", d("react_explore_cells_total"), "count", 0, "")
	stepped, ff := d("react_ticks_simulated_total"), d("react_ticks_fastforwarded_total")
	r.set("sim.ticks_stepped", stepped, "count", 0, "")
	r.set("sim.ticks_ff", ff, "count", 0, "")
	r.set("sim.ff_share", ffShare(uint64(stepped), uint64(ff)), "share", 0, "")
	r.set("sim.trace_passes", d("react_trace_passes_total"), "count", 0, "")
	r.set("obs.dropped_spans", b["react_dropped_spans"], "count", 0, "")
}
