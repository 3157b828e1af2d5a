// Command reactd serves simulations over HTTP: the scenario registry and
// inline JSON specs, executed asynchronously over the experiment engine
// with a content-addressed, single-flight result cache.
//
// Usage:
//
//	reactd [-addr :8080] [-workers n] [-cache n] [-cache-cells n]
//	       [-data-dir dir] [-self url -peers url,url,...]
//	       [-log] [-pprof]
//
// -log emits structured request logs (one JSON line per HTTP request, with
// a server-scoped request id) to stderr. -pprof mounts the net/http/pprof
// profiling handlers under /debug/pprof/ on the same listener — off by
// default, since profiling endpoints on a shared port are an operational
// decision, not a free extra.
//
// -data-dir backs the cell cache with a persistent content-addressed disk
// store: completed cells write through, LRU eviction demotes to disk, and
// a restarted daemon serves previously computed grids without
// resimulating. -peers (with -self, this node's own advertised URL) turns
// on cluster mode: cell ownership is consistent-hashed over the ring, and
// non-owned cells are fetched from their owners, degrading to local
// simulation when a peer is down.
//
// Endpoints:
//
//	GET    /scenarios    list the registry (names, buffers, fingerprints)
//	POST   /runs         submit: {"scenario":"energy-attack"} or {"spec":{...}}
//	GET    /runs/{id}    poll status and (partial) per-buffer results;
//	                     ?wait=15s (on any view's GET) holds the request
//	                     until the view finishes, ?wait=15s&since=<its
//	                     X-View-Version> until it changes; 60 s at most
//	DELETE /runs/{id}    cancel an in-flight run / forget a finished one
//	POST   /sweeps       submit: {"scenario":"...","seed_from":1,"seed_to":50,
//	                     "dts":[...],"buffers":[...]} (or an inline "spec")
//	GET    /sweeps/{id}  poll per-cell results and the per-axis summary
//	DELETE /sweeps/{id}  cancel an in-flight sweep / forget a finished one
//	POST   /explorations submit a design-space exploration: a base scenario
//	                     crossed with a capacitance lattice, presets, dts,
//	                     seeds and spec patches, explored by grid or by
//	                     bisection toward a metric target
//	GET    /explorations/{id}  poll probed cells and the assembled result
//	                     (points, bisection bests, Pareto frontiers)
//	DELETE /explorations/{id}  cancel / forget an exploration
//	GET    /metrics      Prometheus text exposition of every counter, gauge
//	                     and latency histogram (JSON with Accept: application/json)
//	GET    /metrics.json the JSON metrics report: cache hit rates,
//	                     explore_* counters, queue depth, sims/sec (lifetime
//	                     and trailing-minute), build info, start time
//	GET    /runs/{id}/trace          the run's span tree (also /sweeps/
//	                     {id}/trace and /explorations/{id}/trace), merged
//	                     across cluster peers into one tree
//	GET    /traces/{id}  this node's raw spans for a trace id
//
// The cache is cell-granular: the unit of cached work is one buffer of one
// spec under a resolved seed and timestep (its content address). A run or
// sweep is assembled from shared cells, so a submission that overlaps
// anything already simulated — or simulating — reuses those cells and
// pays only for the genuinely new ones: a 50-seed sweep after a 10-seed
// sweep simulates 40 seeds, and a plain run whose cells a sweep already
// covered performs no work at all. A submission returns its id immediately
// (HTTP 202), or the completed view (HTTP 200) when every cell was served
// from the cache. Sweeps report per-cell metrics plus across-seed
// mean ± std summary rows per (buffer, dt) group, bit-identical to
// `reactsim -seeds` for the same spec and seeds. Explorations probe their
// lattice through the same cache, so a bisection submitted after a
// covering grid — or after any sweep or run over the same cells —
// performs zero new simulations, and their results are bit-identical to
// `reactsim -explore` for the same space. SIGINT/SIGTERM drain in-flight
// work before exit; parked long-polls answer at once when the drain begins.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"react/internal/service"
	"react/internal/store"
)

// newHTTPServer wraps the handler in a server with every idle-connection
// timeout set: without ReadHeaderTimeout a single client dribbling header
// bytes pins a connection (and its goroutine) forever — the classic
// slowloris. readHeader is a parameter so the test can use a short one.
func newHTTPServer(addr string, h http.Handler, readHeader time.Duration) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeader,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      120 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// newDaemonServer is newHTTPServer for the service: h is srv, or a mux
// around it. Shutdown waits for active handlers, and a parked long-poll
// (GET ?wait=) is one, so shutdown first releases srv's waiters — the
// drain then waits for real requests only, not for their waits.
func newDaemonServer(addr string, srv *service.Server, h http.Handler, readHeader time.Duration) *http.Server {
	hs := newHTTPServer(addr, h, readHeader)
	hs.RegisterOnShutdown(srv.ReleaseWaiters)
	return hs
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "concurrent simulation cells (0 = GOMAXPROCS)")
		cache       = flag.Int("cache", service.DefaultCacheRuns, "completed run/sweep views kept for polling and whole-run dedup")
		cacheCells  = flag.Int("cache-cells", service.DefaultCacheCells, "completed cells kept in the content-addressed result cache")
		dataDir     = flag.String("data-dir", "", "persistent cell store directory (empty = memory only)")
		self        = flag.String("self", "", "this node's advertised base URL (required with -peers)")
		peers       = flag.String("peers", "", "comma-separated peer base URLs; turns on cluster mode")
		peerTimeout = flag.Duration("peer-timeout", service.DefaultPeerTimeout, "per-request timeout for peer fetches")
		logReqs     = flag.Bool("log", false, "emit structured request logs (JSON lines on stderr)")
		withPprof   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the same listener")
	)
	flag.Parse()

	cfg := service.Config{
		Workers:     *workers,
		CacheRuns:   *cache,
		CacheCells:  *cacheCells,
		Self:        *self,
		PeerTimeout: *peerTimeout,
	}
	if *logReqs {
		cfg.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			cfg.Peers = append(cfg.Peers, p)
		}
	}
	var st *store.Store
	if *dataDir != "" {
		var err error
		if st, err = store.Open(*dataDir); err != nil {
			fmt.Fprintln(os.Stderr, "reactd:", err)
			os.Exit(1)
		}
		cfg.Store = st
	}
	srv, err := service.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reactd:", err)
		os.Exit(1)
	}
	var handler http.Handler = srv
	if *withPprof {
		// Explicit wiring instead of the package's DefaultServeMux side
		// effect: the service keeps its own mux, and profiling stays
		// strictly opt-in.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", srv)
		handler = mux
	}
	httpSrv := newDaemonServer(*addr, srv, handler, 10*time.Second)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "reactd: serving on %s (workers %d, cache %d views / %d cells)\n", *addr, *workers, *cache, *cacheCells)
	if st != nil {
		fmt.Fprintf(os.Stderr, "reactd: cell store %s (%d cells)\n", st.Dir(), st.Len())
	}
	if len(cfg.Peers) > 0 {
		fmt.Fprintf(os.Stderr, "reactd: cluster mode, self %s, peers %s\n", *self, *peers)
	}

	select {
	case err := <-errCh:
		// The listener failed outright (bad address, port in use).
		fmt.Fprintln(os.Stderr, "reactd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "reactd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "reactd: shutdown:", err)
	}
	srv.Close()
	if st != nil {
		st.Close()
	}
}
