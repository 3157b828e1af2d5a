// Package service is the simulation-as-a-service layer behind cmd/reactd:
// an HTTP/JSON API over the scenario registry and the experiment engine,
// with a content-addressed, single-flight result cache.
//
// The cache operates at cell granularity — one buffer of one spec under
// resolved seed/timestep options (scenario.Spec.FingerprintCell). Runs,
// sweeps and explorations are views assembled from shared cell entries,
// through one lifecycle (attach, progress, trace, finalize, release): a
// repeat of a completed cell is served in O(1), concurrent submissions
// that overlap on any cell attach to the one in-flight simulation instead
// of duplicating it, and a run submitted while a sweep covering its cells
// is in flight coalesces per cell. Work executes asynchronously — a submit returns an
// id immediately, fresh cells fan out over a bounded global semaphore, and
// partial results are visible while a view drains.
//
// Endpoints:
//
//	GET    /scenarios         registry listing with fingerprints
//	POST   /runs              submit a run (named scenario or inline spec)
//	GET    /runs/{id}         poll status and (partial) results; ?wait= long-polls
//	DELETE /runs/{id}         cancel an in-flight run / forget a finished one
//	POST   /sweeps            submit a sweep: spec × seed list/range × dt axis × buffer subset
//	GET    /sweeps/{id}       poll per-cell results and the per-axis summary; ?wait= long-polls
//	DELETE /sweeps/{id}       cancel an in-flight sweep / forget a finished one
//	POST   /explorations      submit a design-space exploration (explore.Space)
//	GET    /explorations/{id} poll probed cells and, once drained, the result; ?wait= long-polls
//	DELETE /explorations/{id} cancel an in-flight exploration / forget a finished one
//	GET    /metrics           Prometheus text exposition (JSON via Accept: application/json)
//	GET    /metrics.json      the JSON metrics report, unconditionally
//	GET    /traces/{id}       this node's raw spans for a trace id (peer merge primitive)
//
// plus a trace view per submission kind — GET /runs/{id}/trace,
// /sweeps/{id}/trace, /explorations/{id}/trace — assembling the submission's
// span tree, merged across cluster peers so a forwarded exploration renders
// as one tree however many nodes simulated its cells.
//
// Every GET of a view carries its progress version in the X-View-Version
// header. GET ?wait=<dur> holds the request (up to 60 s) until the view
// finishes or is cancelled, and ?wait=<dur>&since=<version> until its
// version moves; either answers with exactly the body a plain GET would
// write.
//
// Every submission is traced: a root span is minted at submit (or adopted
// from the client's traceparent header), batch groups and cell simulations
// nest under it, and peer fan-out propagates the context so remote spans
// carry the originating trace id.
package service

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"react/internal/explore"
	"react/internal/obs"
	"react/internal/scenario"
	"react/internal/sim"
	"react/internal/store"
)

// DefaultCacheRuns bounds the finished views (runs, sweeps and
// explorations share one LRU) kept for reuse when Config.CacheRuns is zero.
const DefaultCacheRuns = 64

// DefaultCacheCells bounds the finished cells kept for content-addressed
// reuse when Config.CacheCells is zero. Cells are the unit of cached work;
// a typical view holds four to six of them.
const DefaultCacheCells = 512

// Config tunes a Server.
type Config struct {
	// Workers bounds concurrently simulating cells across all runs and
	// sweeps (0 = GOMAXPROCS).
	Workers int
	// CacheRuns bounds the finished views — runs, sweeps and explorations
	// alike — kept for polling and whole-run deduplication
	// (0 = DefaultCacheRuns). In-flight views are never evicted. Evicting a
	// view does not evict its cells.
	CacheRuns int
	// CacheCells bounds the finished cells kept for content-addressed
	// reuse (0 = DefaultCacheCells). In-flight cells are never evicted.
	CacheCells int
	// Store, when set, backs the cell cache with a persistent disk tier:
	// completed cells write through, LRU eviction demotes to disk instead
	// of deleting, and a cache miss consults the disk before simulating.
	// The store stays the caller's to Close (after Server.Close).
	Store *store.Store
	// Peers, when non-empty, turns on cluster mode: the base URLs of the
	// other reactd nodes sharing the cell space. Ownership of a cell is
	// rendezvous hashing of its fingerprint over the ring (Peers + Self),
	// so every node must be configured with the same member URL strings.
	Peers []string
	// Self is this node's own advertised base URL, required with Peers.
	// It may also appear in Peers; the ring is the deduplicated union.
	Self string
	// PeerTimeout bounds each HTTP request to a peer
	// (0 = DefaultPeerTimeout).
	PeerTimeout time.Duration
	// Logger, when set, receives structured request and lifecycle logs
	// (one line per HTTP request, with a server-scoped request id). Nil
	// discards logs — the default keeps the service silent, as before.
	Logger *slog.Logger
}

// Server implements the service over http.Handler. Create with New, shut
// down with Close.
type Server struct {
	workers    int
	cacheRuns  int
	cacheCells int
	store      *store.Store // nil = memory-only
	cluster    *cluster     // nil = single node
	mux        *http.ServeMux
	ctx        context.Context
	shutdown   context.CancelFunc
	sem        chan struct{}
	jobs       sync.WaitGroup
	start      time.Time
	log        *slog.Logger
	reqSeq     atomic.Uint64 // HTTP request-id mint

	// Observability: the metrics registry behind GET /metrics, the span
	// store behind the trace endpoints, and the sliding sims/sec window.
	// The counters below are registry handles — still lock-free atomics,
	// bumped from cell goroutines — so the JSON report and the Prometheus
	// exposition read one set of numbers.
	reg   *obs.Registry
	spans *obs.SpanStore
	rate  *obs.RateWindow // completed sims over the trailing minute
	node  string          // span attribution: cluster self URL, or "local"

	// Monotonic counters.
	submitted, hits, coalesced, misses, evictions   *obs.Counter // run submissions
	sweeps                                          *obs.Counter // sweep submissions
	explorations                                    *obs.Counter // exploration submissions
	explorePoints, exploreCells                     *obs.Counter // exploration points evaluated / cells attached
	cellHits, cellCoalesced, cellMisses, cellEvicts *obs.Counter // cell attachments
	cellsQueued, cellsDone                          *obs.Counter // scheduled cells of any outcome (queue depth)
	simsOK, simsFailed                              *obs.Counter // actual simulations: succeeded / errored
	// Batched-executor accounting (sim.Stats totals across every batch).
	ticksSimulated, ticksFastForwarded, tracePasses *obs.Counter
	// Disk-tier accounting (zero without a Store).
	diskHits, diskMisses, diskPuts *obs.Counter
	// Peer fan-out accounting (zero without cluster mode).
	peerRequests, peerRetries, peerFallbacks, peerCells *obs.Counter
	cellsDelegated                                      *obs.Counter // owned cells simulated by another member

	// Latency and shape distributions.
	hCellSim    *obs.Histogram // wall time of the batch pass that produced each cell
	hBatchCells *obs.Histogram // cells per lockstep batch
	hQueueWait  *obs.Histogram // enqueue → worker-slot acquisition
	hPeerRTT    *obs.Histogram // peer submission round trip (submit → terminal)
	hDiskPut    *obs.Histogram // disk-tier write-through latency
	hDiskGet    *obs.Histogram // disk-tier promote-read latency

	// Long-poll bounds and accounting (wait.go). released closes once, when
	// the server stops holding long-polls.
	released     chan struct{}
	releaseOnce  sync.Once
	waiterCap    int
	waiters      atomic.Int64 // parked now
	waitsRefused *obs.Counter
	// progress is the long-poll broadcast: closed and cleared by notify at
	// every change of view state; nil while nobody waits. It is an atomic
	// pointer, not guarded by mu, so a waiter re-arms without the lock the
	// cell path holds. progressGen counts the broadcasts; it keys each
	// view's memoized version.
	progress    atomic.Pointer[chan struct{}]
	progressGen atomic.Uint64

	// mu guards the stores below and every cell/view list-membership and
	// refcount field. Lock order: mu before view.mu.
	mu      sync.Mutex
	seq     int
	views   map[string]*view // every tracked view, by id
	byFP    map[string]*view // whole-run single-flight index: running or done runs, not forwarded ones
	cells   map[string]*cell // cell single-flight index: running or cached cells
	cellLRU *list.List       // cached done cells, most recently used first
	viewLRU *list.List       // done views kept for polling/dedup, MRU first
	junk    *list.List       // failed/cancelled views kept briefly for polling
	// pending holds fresh cells attached but not yet scheduled: a
	// submission attaches all its cells first, then flushPendingLocked groups
	// them by (trace, seed, dt) batch key so cells sharing a trace pass
	// run in lockstep (scenario.RunBatch) instead of one pass each.
	pending []pendingCell
}

// pendingCell is one fresh cell awaiting batch scheduling. noFwd keeps the
// cell off the cluster planner — set on peer-forwarded submissions so a
// forwarded cell is answered where it lands, whatever this node's own ring
// config says. simOn is the member that simulates it: the submission's
// RunRequest.SimulateOn, or (for travelling cells) the planner's pick.
type pendingCell struct {
	c     *cell
	spec  *scenario.Spec
	i     int
	opt   scenario.RunOptions
	noFwd bool
	// owner and simOn are filled in by cluster.place at flush time.
	owner, simOn string
	// tctx is the attaching view's root span context: the parent of the
	// batch-group span this cell's simulation will nest under.
	tctx obs.SpanContext
}

// batchKey groups pending cells that can share one lockstep trace pass:
// the same trace spec, effective seed and effective timestep.
type batchKey struct {
	trace scenario.TraceSpec
	seed  uint64
	dt    float64
}

// junkRuns bounds the failed/cancelled views kept around for polling. They
// are tracked separately from the done views so that non-reusable views
// never evict reusable ones.
const junkRuns = 32

// maxSweepCells bounds one sweep's fan-out (seeds × dts × buffers).
const maxSweepCells = 4096

// cell is one content-addressed unit of simulation work: a single buffer
// of a spec under resolved options. Cells are shared between every view
// that needs them; res/err are immutable once done is closed.
type cell struct {
	fp     string // "" when the cell has no canonical encoding
	buffer string // display name
	cancel context.CancelFunc

	// refs counts the live (non-terminal) views attached; a running cell
	// whose refs drop to zero is cancelled. Guarded by Server.mu, like the
	// LRU slot below.
	refs  int
	elem  *list.Element
	inLRU bool

	done chan struct{} // closed when terminal
	res  sim.Result
	err  string // "" = ok

	// awaitsPeer marks a cell whose result comes from a peer run. A pinned
	// no-forward submission never joins such a cell in flight when this
	// node does not own it: the cell then waits on its owner, and the
	// owner may be waiting on that very submission (a delegation back to
	// this node), so it simulates a private copy instead. An owned cell
	// waits on a delegate, which never waits on its owner, so it is
	// joined. Guarded by Server.mu.
	awaitsPeer bool

	// Per-cell tick accounting from the batch executor (sim.CellStats),
	// written before done closes — the close is the happens-before edge, as
	// for res — and zero for cached, disk-promoted and peer-fetched cells.
	ticks, ffTicks uint64
}

// terminal reports whether the cell has finished (any outcome).
func (c *cell) terminal() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// cellKey labels one cell slot of a view with its axis coordinates.
type cellKey struct {
	Seed   uint64
	DT     float64 // resolved timestep
	Buffer string  // display name
}

// viewKind is one URL family of views: its wire name, its path segment,
// its id prefix, and the translator from a view into its wire status.
type viewKind struct {
	name, path, prefix string
	status             func(*view) wireStatus
}

var (
	runKind     = &viewKind{"run", "runs", "r", func(v *view) wireStatus { return runStatus(v) }}
	sweepKind   = &viewKind{"sweep", "sweeps", "s", func(v *view) wireStatus { return sweepStatus(v) }}
	exploreKind = &viewKind{"exploration", "explorations", "x", func(v *view) wireStatus { return exploreStatus(v) }}
)

// view is one tracked submission — a run, a sweep, or an exploration —
// assembled from shared cells.
type view struct {
	id      string
	kind    *viewKind
	fp      string // whole-run fingerprint; "" for sweeps, explorations and uncacheable specs
	spec    *scenario.Spec
	created time.Time

	// noFwd keeps the view's fresh cells off the cluster planner; set on
	// peer-forwarded submissions. simOn (RunRequest.SimulateOn) names the
	// member that simulates the misses of such a submission; "" = here.
	noFwd bool
	simOn string

	// Tracing: the submission's root span (ended at finalization) and its
	// context, under which every batch and cell span nests. The context is
	// immutable after creation; root's methods are internally synchronized.
	tctx obs.SpanContext
	root *obs.ActiveSpan

	// The lattice axes of a run or sweep, resolved at submission (a run
	// is one seed and one timestep over every buffer); an exploration's
	// seed axis.
	seeds   []uint64
	dts     []float64
	buffers []string

	// Exploration state: the resolved plan and the engine's per-view
	// cancel.
	plan    *explore.Plan
	vcancel context.CancelFunc

	elem *list.Element // slot in home once terminal
	home *list.List    // the viewLRU (done) or junk (failed/cancelled) list

	// detached (cell refs already released) is only touched during
	// release, which runs with Server.mu held — it belongs to that lock,
	// not to the view's own mutex below.
	detached bool

	mu       sync.Mutex // guards canceled, the version memo and viewState
	canceled bool
	// verMemo is the progress version as of broadcast verGen (wait.go).
	verGen  uint64
	verMemo string
	viewState
}

// viewState is the part of a view a status reports, guarded by view.mu.
// The cell slots and their cache accounting are appended with Server.mu
// held as well — an exploration attaches batch by batch, so they grow
// over its lifetime — which lets a status snapshot take view.mu alone,
// and lets holders of Server.mu (release, finalize, forget) read them
// without it.
type viewState struct {
	status   string
	errMsg   string
	finished time.Time
	cells    []*cell
	keys     []cellKey // index-parallel to cells
	points   []int     // exploration point of each cell
	// The drained exploration engine's result or error.
	expResult                             *explore.Result
	expErr                                error
	cachedCells, coalescedCells, newCells int
}

// New builds a ready-to-serve Server. It fails only on an invalid cluster
// configuration (Config.Peers/Self).
func New(cfg Config) (*Server, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cacheRuns := cfg.CacheRuns
	if cacheRuns <= 0 {
		cacheRuns = DefaultCacheRuns
	}
	cacheCells := cfg.CacheCells
	if cacheCells <= 0 {
		cacheCells = DefaultCacheCells
	}
	cl, err := newCluster(cfg.Self, cfg.Peers, cfg.PeerTimeout)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		workers:    workers,
		cacheRuns:  cacheRuns,
		cacheCells: cacheCells,
		store:      cfg.Store,
		cluster:    cl,
		ctx:        ctx,
		shutdown:   cancel,
		sem:        make(chan struct{}, workers),
		start:      time.Now(),
		log:        cfg.Logger,
		node:       "local",
		views:      map[string]*view{},
		byFP:       map[string]*view{},
		cells:      map[string]*cell{},
		cellLRU:    list.New(),
		viewLRU:    list.New(),
		junk:       list.New(),
		released:   make(chan struct{}),
		waiterCap:  maxViewWaiters,
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	if cl != nil {
		s.node = cl.self
	}
	s.initObs()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /scenarios", s.handleScenarios)
	mux.HandleFunc("POST /runs", handlePost("run request", s.postRun))
	mux.HandleFunc("POST /sweeps", handlePost("sweep request", s.postSweep))
	mux.HandleFunc("POST /explorations", handlePost("exploration space", s.submitExplore))
	for _, k := range []*viewKind{runKind, sweepKind, exploreKind} {
		mux.HandleFunc("GET /"+k.path+"/{id}", s.handleGet(k))
		mux.HandleFunc("GET /"+k.path+"/{id}/trace", s.handleViewTrace(k))
		mux.HandleFunc("DELETE /"+k.path+"/{id}", s.handleDelete(k))
	}
	mux.HandleFunc("GET /traces/{id}", s.handleTraceRaw)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics.json", s.handleMetricsJSON)
	s.mux = mux
	return s, nil
}

// initObs builds the metrics registry, the span store, and the sliding
// sims/sec window. Counter handles land on the Server fields the rest of
// this file bumps; gauges read live state through closures (a scrape takes
// s.mu briefly for the cache sizes — registration order is New-time only,
// and nothing holding s.mu ever scrapes, so the lock order is one-way).
func (s *Server) initObs() {
	r := obs.NewRegistry()
	s.reg = r
	s.spans = obs.NewSpanStore(0, 0)
	s.rate = obs.NewRateWindow(60)

	s.submitted = r.Counter("react_runs_submitted_total", "Run submissions accepted (POST /runs and peer forwards).")
	s.hits = r.Counter("react_run_cache_hits_total", "Run submissions served entirely from cache.")
	s.coalesced = r.Counter("react_run_coalesced_total", "Run submissions attached to identical in-flight work.")
	s.misses = r.Counter("react_run_cache_misses_total", "Run submissions that scheduled at least one fresh cell.")
	s.evictions = r.Counter("react_run_evictions_total", "Finished run/sweep views evicted by LRU pressure.")
	s.sweeps = r.Counter("react_sweeps_submitted_total", "Sweep submissions accepted.")
	s.explorations = r.Counter("react_explorations_submitted_total", "Exploration submissions accepted.")
	s.explorePoints = r.Counter("react_explore_points_total", "Lattice points probed by exploration strategies.")
	s.exploreCells = r.Counter("react_explore_cells_total", "Cells attached by exploration strategies.")
	s.cellHits = r.Counter("react_cell_hits_total", "Cell attachments served from the cache (memory or disk).")
	s.cellCoalesced = r.Counter("react_cell_coalesced_total", "Cell attachments joined to an in-flight simulation.")
	s.cellMisses = r.Counter("react_cell_misses_total", "Cell attachments that scheduled a fresh simulation.")
	s.cellEvicts = r.Counter("react_cell_evictions_total", "Cached cells evicted by LRU pressure.")
	s.cellsQueued = r.Counter("react_cells_queued_total", "Cells handed to the scheduler (any outcome).")
	s.cellsDone = r.Counter("react_cells_done_total", "Scheduled cells that reached a terminal state.")
	s.simsOK = r.Counter("react_sims_completed_total", "Local simulations that completed successfully.")
	s.simsFailed = r.Counter("react_sims_failed_total", "Local simulations that errored.")
	s.ticksSimulated = r.Counter("react_ticks_simulated_total", "Cell-ticks actually stepped by the batch executor.")
	s.ticksFastForwarded = r.Counter("react_ticks_fastforwarded_total", "Cell-ticks skipped by the dead-time fast-forward.")
	s.tracePasses = r.Counter("react_trace_passes_total", "Lockstep passes over a trace (one per batch).")
	s.diskHits = r.Counter("react_disk_hits_total", "Memory misses served from the disk tier.")
	s.diskMisses = r.Counter("react_disk_misses_total", "Memory misses the disk tier could not serve.")
	s.diskPuts = r.Counter("react_disk_puts_total", "Cells written through to the disk tier.")
	s.peerRequests = r.Counter("react_peer_requests_total", "Run submissions sent to cluster peers.")
	s.peerRetries = r.Counter("react_peer_retries_total", "Peer submissions retried after a transport failure.")
	s.peerFallbacks = r.Counter("react_peer_fallbacks_total", "Peer fan-outs degraded to local simulation.")
	s.peerCells = r.Counter("react_peer_cells_total", "Cells answered by cluster peers.")
	s.cellsDelegated = r.Counter("react_cells_delegated_total", "Cells this node owns that another ring member simulated; persisted here.")
	s.waitsRefused = r.Counter("react_view_waits_refused_total", "Long-poll GETs answered at once because the waiter cap was reached.")

	s.hCellSim = r.Histogram("react_cell_sim_duration_seconds",
		"Wall time of the lockstep batch pass that produced each locally simulated cell (observed once per successful cell).",
		obs.DurationBuckets)
	s.hBatchCells = r.Histogram("react_batch_cells",
		"Cells riding one lockstep batch pass.", obs.SizeBuckets)
	s.hQueueWait = r.Histogram("react_queue_wait_seconds",
		"Batch wait from enqueue to worker-slot acquisition.", obs.DurationBuckets)
	s.hPeerRTT = r.Histogram("react_peer_rtt_seconds",
		"Peer run round trip, submission to terminal status.", obs.DurationBuckets)
	s.hDiskPut = r.Histogram("react_disk_put_seconds",
		"Disk-tier write-through latency.", obs.DurationBuckets)
	s.hDiskGet = r.Histogram("react_disk_get_seconds",
		"Disk-tier promote-read latency.", obs.DurationBuckets)

	r.Gauge("react_start_time_seconds", "Unix time the server started.").Set(float64(s.start.UnixNano()) / 1e9)
	r.InfoGauge("react_build_info", "Build metadata; the value is always 1.", obs.BuildInfoLabels())
	r.GaugeFunc("react_uptime_seconds", "Seconds since the server started.", func() float64 {
		return time.Since(s.start).Seconds()
	})
	r.GaugeFunc("react_workers", "Worker-slot bound on concurrently simulating batches.", func() float64 {
		return float64(s.workers)
	})
	r.GaugeFunc("react_cells_running", "Worker slots currently occupied.", func() float64 {
		return float64(len(s.sem))
	})
	r.GaugeFunc("react_queue_depth", "Scheduled cells not yet terminal.", func() float64 {
		return float64(int64(s.cellsQueued.Load() - s.cellsDone.Load()))
	})
	r.GaugeFunc("react_sims_per_sec_60s", "Completed simulations per second over the trailing minute.", s.rate.Rate)
	r.GaugeFunc("react_run_cache_entries", "Finished views held for reuse.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.viewLRU.Len())
	})
	r.GaugeFunc("react_cell_cache_entries", "Finished cells held for content-addressed reuse.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.cellLRU.Len())
	})
	r.GaugeFunc("react_view_waiters", "Long-poll GETs parked now.", func() float64 {
		return float64(s.waiters.Load())
	})
	r.GaugeFunc("react_dropped_spans", "Spans dropped by span-store bounds.", func() float64 {
		return float64(s.spans.Dropped())
	})
	if s.store != nil {
		r.GaugeFunc("react_disk_cells", "Cells resident in the disk tier.", func() float64 {
			return float64(s.store.Len())
		})
		r.GaugeFunc("react_disk_quarantined", "Disk entries quarantined as corrupt since open.", func() float64 {
			return float64(s.store.Quarantined())
		})
	}
	if s.cluster != nil {
		r.GaugeFunc("react_cluster_peers", "Other members of the cluster ring.", func() float64 {
			return float64(len(s.cluster.others))
		})
	}
}

// ServeHTTP implements http.Handler. Body handling is normalized here for
// every method: the body (if any) is capped at maxSpecBytes, and whatever
// a handler leaves unread is drained so the connection can be reused —
// the GET/DELETE handlers never read bodies at all, and the POST decoders
// stop at the first JSON value. Every request gets a server-scoped id and
// a structured log line (discarded unless Config.Logger is set).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	began := time.Now()
	rid := s.reqSeq.Add(1)
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, maxSpecBytes)
		defer func() {
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
		}()
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(sw, r)
	attrs := []any{
		"req_id", rid,
		"method", r.Method,
		"path", r.URL.Path,
		"status", sw.code,
		"dur_ms", float64(time.Since(began).Microseconds()) / 1e3,
	}
	if tp := r.Header.Get(obs.TraceparentHeader); tp != "" {
		if sc, ok := obs.ParseTraceparent(tp); ok {
			attrs = append(attrs, "trace_id", sc.TraceID.String())
		}
	}
	s.log.Info("http", attrs...)
}

// statusWriter captures the response code for the request log.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Close releases parked long-polls, cancels every in-flight cell and
// waits for the workers to drain. The HTTP listener (if any) is the
// caller's to shut down first.
func (s *Server) Close() {
	s.ReleaseWaiters()
	s.shutdown()
	s.jobs.Wait()
}

// --- cell lifecycle ---

// attachCellLocked resolves one cell address against the single-flight index:
// a cached cell is reused, an in-flight cell is joined, and a fresh cell
// is scheduled. Called with s.mu held; the returned state is one of
// cellCached / cellInFlight / cellFresh.
const (
	cellCached = iota
	cellInFlight
	cellFresh
)

func (s *Server) attachCellLocked(v *view, spec *scenario.Spec, i int, opt scenario.RunOptions) (*cell, int) {
	fp, _ := spec.FingerprintCell(i, opt)
	index := fp != ""
	if c := s.cells[fp]; index && c != nil {
		if !c.terminal() && c.awaitsPeer && v.noFwd && v.simOn == "" && s.cluster.owner(fp) != s.cluster.self {
			// A pinned submission never waits on a peer: it simulates a
			// private, unindexed copy (see cell.awaitsPeer).
			index = false
		} else {
			c.refs++
			if c.terminal() {
				// Only successful cells stay in the index, so a terminal
				// index entry is always servable.
				s.cellHits.Add(1)
				if c.inLRU {
					s.cellLRU.MoveToFront(c.elem)
				}
				return c, cellCached
			}
			s.cellCoalesced.Add(1)
			return c, cellInFlight
		}
	} else if index {
		// A memory miss consults the disk tier before simulating: a cell
		// demoted by LRU pressure — or computed before a restart — promotes
		// back into the cache as an ordinary hit, without a simulation.
		// The read happens under s.mu; it is one small file, and the
		// alternative (optimistic unlock) would race the single-flight
		// index. A corrupt entry was quarantined by the store and reads
		// as a miss.
		if s.store != nil && s.store.Has(fp) {
			began := time.Now()
			if payload, err := s.store.Get(fp); err == nil {
				s.hDiskGet.Observe(time.Since(began).Seconds())
				if res, derr := decodeCell(payload); derr == nil {
					c := &cell{fp: fp, buffer: spec.Buffers[i].DisplayName(), refs: 1, done: make(chan struct{})}
					c.res = res
					close(c.done)
					s.cells[fp] = c
					s.cacheCellLocked(c)
					s.cellHits.Add(1)
					s.diskHits.Add(1)
					s.spans.Event(v.tctx, "disk-hit", s.node, map[string]string{"buffer": c.buffer})
					return c, cellCached
				}
				// Decodable by the store but not by us (a payload written
				// by an incompatible build): drop it and resimulate.
				s.store.Delete(fp)
			}
			s.diskMisses.Add(1)
		} else if s.store != nil {
			s.diskMisses.Add(1)
		}
	}
	c := &cell{fp: fp, buffer: spec.Buffers[i].DisplayName(), refs: 1, done: make(chan struct{})}
	if index {
		s.cells[fp] = c
	}
	s.cellMisses.Add(1)
	s.pending = append(s.pending, pendingCell{c: c, spec: spec, i: i, opt: opt, noFwd: v.noFwd, simOn: v.simOn, tctx: v.tctx})
	return c, cellFresh
}

// flushPendingLocked groups the pending fresh cells by batch key and schedules
// one lockstep batch per group, so a sweep's cells sharing a (trace, seed,
// dt) address make one pass over the trace however many buffers ride it.
// In cluster mode the flush is first placed over the ring (cluster.place:
// every cell's owner and simulating member), then each group is
// partitioned by peer route: cells owned and simulated here run locally,
// the rest travel to their owners or simulating members — still grouped,
// so remote fan-out keeps the one-trace-pass-per-seed batching. Called
// with s.mu held after a submission attaches all its cells.
func (s *Server) flushPendingLocked() {
	pend := s.pending
	s.pending = nil
	groups := map[batchKey][]pendingCell{}
	var order []batchKey
	for _, p := range pend {
		k := batchKey{
			trace: p.spec.Trace,
			seed:  p.spec.ResolveSeed(p.opt.Seed),
			dt:    p.spec.ResolveDT(p.opt.DT),
		}
		if p.c.fp == "" {
			// Unfingerprintable cells carry arbitrary Go constructors the
			// service cannot reason about (side effects, shared state), so
			// they keep per-cell scheduling: each runs as a batch of one,
			// finishing — and cancelling — independently.
			s.startBatch([]pendingCell{p}, scenario.RunOptions{Seed: k.seed, DT: k.dt})
			continue
		}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], p)
	}
	if s.cluster != nil {
		placed := make([][]pendingCell, len(order))
		for i, k := range order {
			placed[i] = groups[k]
		}
		s.cluster.place(placed)
	}
	for _, k := range order {
		// Fully resolved options apply uniformly to every member, whatever
		// each spec's own defaults were (resolution is deterministic, so
		// results match per-cell runs bit for bit).
		opt := scenario.RunOptions{Seed: k.seed, DT: k.dt}
		if s.cluster == nil {
			s.startBatch(groups[k], opt)
			continue
		}
		var local []pendingCell
		byRoute := map[peerRoute][]pendingCell{}
		var routes []peerRoute
		for _, p := range groups[k] {
			r, remote := s.cluster.route(p)
			if !remote {
				local = append(local, p)
				continue
			}
			if _, ok := byRoute[r]; !ok {
				routes = append(routes, r)
			}
			byRoute[r] = append(byRoute[r], p)
		}
		if len(local) > 0 {
			s.startBatch(local, opt)
		}
		for _, r := range routes {
			s.startPeerGroup(r, byRoute[r], opt)
		}
	}
}

// startBatch schedules one lockstep batch over the global semaphore: the
// whole batch occupies a single worker slot and makes a single pass over
// its trace. Each member cell's cancel releases only that member; the
// batch context is cancelled when every member has been released, so one
// abandoned cell never kills siblings another view still wants. Called
// with s.mu held; returns immediately.
func (s *Server) startBatch(group []pendingCell, opt scenario.RunOptions) {
	ctx, cancel := s.memberRelease(group)
	s.cellsQueued.Add(uint64(len(group)))
	enqueued := time.Now()
	s.jobs.Add(1)
	go func() {
		defer s.jobs.Done()
		defer cancel()
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			for _, p := range group {
				s.completeCell(p.c, sim.Result{}, ctx.Err(), cellSimulated, 0, sim.CellStats{})
			}
			return
		}
		s.hQueueWait.Observe(time.Since(enqueued).Seconds())
		s.hBatchCells.Observe(float64(len(group)))
		// One batch span per lockstep pass, one "sim" child per member. A
		// flush drains one submission, so the group shares its view's root
		// span context.
		bspan := s.spans.Start(group[0].tctx, "batch", s.node,
			map[string]string{"cells": strconv.Itoa(len(group))})
		cellSpans := make([]*obs.ActiveSpan, len(group))
		for i, p := range group {
			cellSpans[i] = s.spans.Start(bspan.Context(), "sim", s.node,
				map[string]string{"buffer": p.spec.Buffers[p.i].DisplayName()})
		}
		items := make([]scenario.BatchItem, len(group))
		for i, p := range group {
			items[i] = scenario.BatchItem{Spec: p.spec, Buffer: p.i}
		}
		var st sim.Stats
		began := time.Now()
		res, err := scenario.RunBatch(items, opt, &st)
		dur := time.Since(began)
		<-s.sem
		s.ticksSimulated.Add(st.TicksSimulated)
		s.ticksFastForwarded.Add(st.TicksFastForwarded)
		s.tracePasses.Add(st.TracePasses)
		for _, sp := range cellSpans {
			sp.End(err)
		}
		bspan.End(err)
		if err != nil {
			// A batch fails as a unit: a member that cannot even build its
			// cell poisons the shared pass, and every sibling reports the
			// same labeled error.
			for _, p := range group {
				s.completeCell(p.c, sim.Result{}, err, cellSimulated, 0, sim.CellStats{})
			}
			return
		}
		for i, p := range group {
			s.completeCell(p.c, res[i], nil, cellSimulated, dur, st.Cells[i])
		}
	}()
}

// memberRelease gives every member of a launched group its own idempotent
// cancel and returns the group's context, which is cancelled once every
// member has been released. Called with s.mu held.
func (s *Server) memberRelease(group []pendingCell) (context.Context, context.CancelFunc) {
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
	return ctx, cancel
}

// Cell result origins for completeCell. Only locally simulated results
// count in the sims_* metrics. Simulated and delegated results write
// through to the disk tier: a delegated cell is one this node owns and
// another member simulated. A peer-fetched cell was persisted on its
// owner, and persisting it here would erode the shards' disjointness.
const (
	cellSimulated = iota
	cellFromPeer
	cellDelegated
)

// completeCell records a cell's outcome and manages the cell cache: a
// successful cell still wanted by the index becomes a cached entry
// (bounded by LRU eviction) and writes through to the disk tier; failed
// and cancelled cells leave the index so a resubmission simulates afresh.
//
// dur is the wall time of the batch pass that produced the cell and cst
// its per-cell tick accounting — both zero for peer-answered and cancelled
// cells. The sim-duration histogram is observed exactly where simsOK is
// bumped, so its cumulative count always equals sims_completed.
func (s *Server) completeCell(c *cell, res sim.Result, err error, origin int, dur time.Duration, cst sim.CellStats) {
	if err == nil && origin != cellFromPeer && c.fp != "" && s.store != nil {
		// Write through before publishing, outside s.mu: the disk write
		// must not stall attachments, and a cell is only servable from
		// disk after it is servable from memory anyway.
		if payload, perr := encodeCell(res); perr == nil {
			began := time.Now()
			if s.store.Put(c.fp, payload) == nil {
				s.diskPuts.Add(1)
				s.hDiskPut.Observe(time.Since(began).Seconds())
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		c.res = res
		c.ticks = cst.TicksSimulated
		c.ffTicks = cst.TicksFastForwarded
		switch origin {
		case cellSimulated:
			s.simsOK.Add(1)
			s.rate.Add(1)
			s.hCellSim.Observe(dur.Seconds())
		case cellDelegated:
			s.cellsDelegated.Add(1)
		}
		if c.fp != "" && s.cells[c.fp] == c {
			s.cacheCellLocked(c)
		}
	case errors.Is(err, context.Canceled):
		c.err = context.Canceled.Error()
		s.dropCellIndex(c)
	default:
		c.err = err.Error()
		if origin == cellSimulated {
			s.simsFailed.Add(1)
		}
		s.dropCellIndex(c)
	}
	close(c.done)
	s.cellsDone.Add(1)
	s.notify()
}

// cacheCellLocked files a terminal successful cell in the LRU and evicts
// the overflow. Called with s.mu held.
func (s *Server) cacheCellLocked(c *cell) {
	c.elem = s.cellLRU.PushFront(c)
	c.inLRU = true
	for s.cellLRU.Len() > s.cacheCells {
		s.evictCell(s.cellLRU.Back().Value.(*cell))
		s.cellEvicts.Add(1)
	}
}

// evictCell drops a cached cell from memory. With a disk tier this is a
// demotion, not a deletion: the cell's entry stays on disk, and the next
// attachment of its address promotes it back without a simulation.
// Called with s.mu held.
func (s *Server) evictCell(c *cell) {
	s.cellLRU.Remove(c.elem)
	c.inLRU = false
	s.dropCellIndex(c)
}

// dropCellIndex removes a cell from the single-flight index if it still
// owns its address. Called with s.mu held.
func (s *Server) dropCellIndex(c *cell) {
	if c.fp != "" && s.cells[c.fp] == c {
		delete(s.cells, c.fp)
	}
}

// releaseCellsLocked detaches a view from its cells: refcounts drop, and a
// running cell nobody else wants is cancelled and leaves the index so new
// identical submissions start fresh instead of attaching to a dying cell.
// Called with s.mu held; idempotent.
func (s *Server) releaseCellsLocked(v *view) {
	if v.detached {
		return
	}
	v.detached = true
	for _, c := range v.cells {
		c.refs--
		if !c.terminal() && c.refs == 0 {
			if c.cancel != nil {
				c.cancel()
			}
			s.dropCellIndex(c)
		}
	}
}

// --- view lifecycle ---

// newViewLocked allocates a tracked view, minting its root span: a fresh
// trace normally, or a child of the submitter's span when the submission
// carried a traceparent (a client propagating its own trace, or a peer
// forwarding cells — either way the view's spans join the caller's trace).
// Called with s.mu held.
func (s *Server) newViewLocked(kind *viewKind, spec *scenario.Spec, parent obs.SpanContext) *view {
	s.seq++
	v := &view{
		id:      fmt.Sprintf("%s%06d", kind.prefix, s.seq),
		kind:    kind,
		spec:    spec,
		created: time.Now(),
	}
	v.status = StatusRunning
	v.root = s.spans.Start(parent, kind.name, s.node, map[string]string{"scenario": spec.Name})
	v.root.SetAttr("id", v.id)
	v.tctx = v.root.Context()
	return v
}

// addCell attaches one cell to the view and keeps the submission-time
// cache accounting, returning the shared cell. point is the cell's
// exploration point (ignored for runs and sweeps). Called with s.mu held.
func (s *Server) addCell(v *view, spec *scenario.Spec, i int, opt scenario.RunOptions, key cellKey, point int) *cell {
	c, state := s.attachCellLocked(v, spec, i, opt)
	v.mu.Lock()
	defer v.mu.Unlock()
	v.cells = append(v.cells, c)
	v.keys = append(v.keys, key)
	if v.kind == exploreKind {
		v.points = append(v.points, point)
	}
	switch state {
	case cellCached:
		v.cachedCells++
	case cellInFlight:
		v.coalescedCells++
	case cellFresh:
		v.newCells++
	}
	s.notify()
	return c
}

// track publishes the view and arranges its finalization: synchronously
// when every cell is already terminal (a pure cache hit), otherwise
// through a waiter goroutine. Called with s.mu held.
func (s *Server) trackLocked(v *view) {
	s.views[v.id] = v
	allDone := true
	for _, c := range v.cells {
		if !c.terminal() {
			allDone = false
			break
		}
	}
	if allDone {
		s.finalizeLocked(v)
		return
	}
	s.jobs.Add(1)
	go func() {
		defer s.jobs.Done()
		for _, c := range v.cells {
			<-c.done
		}
		s.mu.Lock()
		s.finalizeLocked(v)
		s.mu.Unlock()
	}()
}

// finalizeLocked records a drained view's outcome and files it: done views
// stay pollable and (for runs) addressable by fingerprint, bounded by LRU
// eviction; failed and cancelled views leave the whole-run index and are
// kept only briefly, never displacing reusable views. Called with s.mu
// held.
func (s *Server) finalizeLocked(v *view) {
	s.releaseCellsLocked(v)
	v.mu.Lock()
	status, errMsg := StatusDone, ""
	if v.kind == exploreKind {
		// An exploration's outcome is the engine's, not the cells': bisect
		// legitimately leaves lattice points unevaluated, and a shared cell
		// failing surfaces as the engine error.
		switch {
		case v.canceled || errors.Is(v.expErr, context.Canceled):
			status, errMsg = StatusCanceled, context.Canceled.Error()
		case v.expErr != nil:
			status, errMsg = StatusFailed, v.expErr.Error()
		}
	} else {
		for _, c := range v.cells {
			if c.err == "" {
				continue
			}
			if c.err == context.Canceled.Error() {
				status, errMsg = StatusCanceled, c.err
			} else {
				status, errMsg = StatusFailed, fmt.Sprintf("%s: %s", c.buffer, c.err)
			}
			break
		}
	}
	if v.canceled {
		status, errMsg = StatusCanceled, context.Canceled.Error()
	}
	v.status = status
	v.errMsg = errMsg
	v.finished = time.Now()
	v.mu.Unlock()
	s.notify()
	v.root.SetAttr("status", status)
	if status == StatusDone {
		v.root.End(nil)
	} else {
		v.root.End(errors.New(errMsg))
	}

	if status == StatusDone {
		v.home = s.viewLRU
		v.elem = s.viewLRU.PushFront(v)
		for s.viewLRU.Len() > s.cacheRuns {
			s.evictView(s.viewLRU.Back().Value.(*view))
			s.evictions.Add(1)
		}
		return
	}
	if v.fp != "" && s.byFP[v.fp] == v {
		delete(s.byFP, v.fp)
	}
	v.home = s.junk
	v.elem = s.junk.PushFront(v)
	for s.junk.Len() > junkRuns {
		s.evictView(s.junk.Back().Value.(*view))
	}
}

// evictView forgets a terminal view (its cells stay cached). Called with
// s.mu held.
func (s *Server) evictView(v *view) {
	v.home.Remove(v.elem)
	delete(s.views, v.id)
	if v.fp != "" && s.byFP[v.fp] == v {
		delete(s.byFP, v.fp)
	}
}

// forgetView is the explicit DELETE of a terminal view: the view is
// dropped and so are its cached cells — from the disk tier too, unlike
// an LRU demotion — except cells still referenced by a live view (a sweep
// in flight over the same addresses), which must survive. Called with
// s.mu held.
func (s *Server) forgetView(v *view) {
	s.evictView(v)
	for _, c := range v.cells {
		if c.refs != 0 {
			continue
		}
		if c.inLRU {
			s.evictCell(c) // an explicit forget; not counted as a cache eviction
		}
		// Delete the disk entry unless another live cell owns the address
		// (it would just re-persist, but why thrash).
		if s.store != nil && c.fp != "" && s.cells[c.fp] == nil {
			s.store.Delete(c.fp)
		}
	}
}

// --- run and sweep submission ---

// Submit resolves, deduplicates and (if needed) launches a run, returning
// its submission view. It is the Go-level core of POST /runs and reads
// only opt.Seed and opt.DT: a run's cells are cached results, so it never
// records series or drives a probe.
func (s *Server) Submit(spec *scenario.Spec, opt scenario.RunOptions) *RunStatus {
	return s.submit(spec, scenario.RunOptions{Seed: opt.Seed, DT: opt.DT}, false, "", obs.SpanContext{})
}

// submit is Submit plus the cluster-internal noFwd flag (RunRequest
// .NoForward): a forwarded run's fresh cells never forward again — they
// simulate here, or on simOn (RunRequest.SimulateOn, validated by
// postRun) through one delegation hop. parent, when valid, nests the
// run's root span under the submitter's trace (the HTTP layer fills it
// from the traceparent header).
//
// A noFwd run is private: it neither joins nor enters the whole-run
// index, so the forwarder's cancel of it (runOnPeer) never cancels or
// forgets a run another client holds. Its cells are still shared per cell.
func (s *Server) submit(spec *scenario.Spec, opt scenario.RunOptions, noFwd bool, simOn string, parent obs.SpanContext) *RunStatus {
	s.submitted.Add(1)
	// A spec with no canonical encoding (Go-only constructors) still runs;
	// it just cannot be deduplicated or cached.
	fp, _ := spec.FingerprintRun(opt)
	shared := fp != "" && !noFwd

	s.mu.Lock()
	if v := s.byFP[fp]; shared && v != nil {
		// A failed or cancelled run should have left the index; anything
		// but done or running falls through and replaces it.
		if status := v.snapshot().status; status == StatusDone || status == StatusRunning {
			done := status == StatusDone
			if done {
				s.hits.Add(1)
				s.viewLRU.MoveToFront(v.elem)
			} else {
				s.coalesced.Add(1)
			}
			s.mu.Unlock()
			st := runStatus(v)
			st.Cached, st.Coalesced = done, !done
			return st
		}
	}
	// A run is the one-seed, one-timestep lattice over every buffer.
	ax := SweepAxes{Seeds: []uint64{spec.ResolveSeed(opt.Seed)}, DTs: []float64{spec.ResolveDT(opt.DT)}}
	for i := range spec.Buffers {
		ax.Buffers = append(ax.Buffers, i)
	}
	v := s.newViewLocked(runKind, spec, parent)
	v.fp = fp
	v.noFwd, v.simOn = noFwd, simOn
	s.attachLatticeLocked(v, ax)
	// The submission's cache disposition: a run with no fresh cells was
	// served entirely from shared cells — from the cache when nothing is
	// in flight, coalesced otherwise.
	switch {
	case v.newCells > 0:
		s.misses.Add(1)
	case v.coalescedCells > 0:
		s.coalesced.Add(1)
	default:
		s.hits.Add(1)
	}
	if shared {
		s.byFP[fp] = v
	}
	cached, coalesced := v.newCells == 0 && v.coalescedCells == 0, v.newCells == 0 && v.coalescedCells > 0
	s.trackLocked(v)
	s.mu.Unlock()
	st := runStatus(v)
	st.Cached, st.Coalesced = cached, coalesced
	return st
}

// SweepAxes is a sweep's resolved parameter grid: the cross product of
// seeds × timesteps × a buffer subset of one spec.
type SweepAxes struct {
	// Seeds are the resolved per-cell seeds (never 0), in sweep order.
	Seeds []uint64
	// DTs are the resolved timesteps in seconds.
	DTs []float64
	// Buffers are spec buffer indices.
	Buffers []int
}

// ResolveSweepAxes validates a SweepRequest's axes against a spec and
// resolves defaults: no seeds means the spec's one resolved seed, a seed
// range spans [from, to] with from defaulting to 1, no dts means the
// spec's one resolved timestep, and no buffer subset means every buffer.
// The seed and dt rules live in scenario (ResolveSeedAxis/ResolveDTAxis),
// shared with the exploration subsystem.
func ResolveSweepAxes(spec *scenario.Spec, req *SweepRequest) (SweepAxes, error) {
	var ax SweepAxes
	var err error
	if ax.Seeds, err = spec.ResolveSeedAxis(req.Seeds, req.SeedFrom, req.SeedTo, maxSweepCells); err != nil {
		return ax, fmt.Errorf("sweep: %w", err)
	}
	if ax.DTs, err = spec.ResolveDTAxis(req.DTs); err != nil {
		return ax, fmt.Errorf("sweep: %w", err)
	}
	if len(req.Buffers) > 0 {
		for _, name := range req.Buffers {
			idx := slices.IndexFunc(spec.Buffers, func(bs scenario.BufferSpec) bool { return bs.DisplayName() == name })
			if idx < 0 {
				return ax, fmt.Errorf("sweep: spec has no buffer %q", name)
			}
			if slices.Contains(ax.Buffers, idx) {
				return ax, fmt.Errorf("sweep: duplicate buffer %q", name)
			}
			ax.Buffers = append(ax.Buffers, idx)
		}
	} else {
		for i := range spec.Buffers {
			ax.Buffers = append(ax.Buffers, i)
		}
	}
	total := len(ax.Seeds) * len(ax.DTs) * len(ax.Buffers)
	if total > maxSweepCells {
		return ax, fmt.Errorf("sweep: %d cells exceed the %d-cell bound", total, maxSweepCells)
	}
	return ax, nil
}

// SubmitSweep launches a sweep over the resolved axes, returning its
// submission view. It is the Go-level core of POST /sweeps.
func (s *Server) SubmitSweep(spec *scenario.Spec, ax SweepAxes) *SweepStatus {
	return s.submitSweep(spec, ax, obs.SpanContext{})
}

// submitSweep is SubmitSweep with the submitter's span context.
func (s *Server) submitSweep(spec *scenario.Spec, ax SweepAxes, parent obs.SpanContext) *SweepStatus {
	s.sweeps.Add(1)
	s.mu.Lock()
	v := s.newViewLocked(sweepKind, spec, parent)
	s.attachLatticeLocked(v, ax)
	s.trackLocked(v)
	s.mu.Unlock()
	return sweepStatus(v)
}

// attachLatticeLocked attaches a run's or sweep's cells and schedules the
// fresh ones. Cells are attached buffer-major, then by timestep, then by
// seed, so each (buffer, dt) group's seeds are contiguous and in order —
// the layout the sweep summary reads. Called with s.mu held.
func (s *Server) attachLatticeLocked(v *view, ax SweepAxes) {
	v.seeds, v.dts = ax.Seeds, ax.DTs
	for _, bi := range ax.Buffers {
		name := v.spec.Buffers[bi].DisplayName()
		v.buffers = append(v.buffers, name)
		for _, dt := range ax.DTs {
			for _, seed := range ax.Seeds {
				opt := scenario.RunOptions{Seed: seed, DT: dt}
				s.addCell(v, v.spec, bi, opt, cellKey{Seed: seed, DT: dt, Buffer: name}, 0)
			}
		}
	}
	s.flushPendingLocked()
}

// --- wire snapshots ---

// snapshot copies the view's state: one consistent header, and cell
// slices whose first len entries never change — appends never rewrite a
// written slot — so the wire translators read them without a lock.
func (v *view) snapshot() viewState {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.viewState
}

// finishedAt is the wire Finished time: set once the view is terminal.
func (vs *viewState) finishedAt() *time.Time {
	if !Terminal(vs.status) {
		return nil
	}
	f := vs.finished
	return &f
}

// cellStatus snapshots one shared cell into its wire shape.
func cellStatus(c *cell) CellStatus {
	cs := CellStatus{Buffer: c.buffer}
	if c.terminal() {
		cs.Done = true
		cs.Error = c.err
		if c.err == "" {
			cs.Result = toCellResult(c.res)
		}
	}
	return cs
}

// progressOf aggregates a view's cell completion into the wire Progress:
// cells done over total, plus the terminal cells' tick accounting (zero
// for cached and peer-fetched cells, which cost this node no stepping).
func progressOf(cells []*cell) Progress {
	p := Progress{CellsTotal: len(cells)}
	for _, c := range cells {
		if c.terminal() {
			p.CellsDone++
			p.TicksSimulated += c.ticks
			p.TicksFastForwarded += c.ffTicks
		}
	}
	return p
}

// runStatus translates a run view into its wire shape.
func runStatus(v *view) *RunStatus {
	sn := v.snapshot()
	st := &RunStatus{
		ID:          v.id,
		Scenario:    v.spec.Name,
		Seed:        v.seeds[0],
		Fingerprint: v.fp,
		TraceID:     v.tctx.TraceID.String(),
		Status:      sn.status,
		Error:       sn.errMsg,
		Created:     v.created,
		Finished:    sn.finishedAt(),
		Progress:    progressOf(sn.cells),
		Cells:       make([]CellStatus, len(sn.cells)),
	}
	for i, c := range sn.cells {
		st.Cells[i] = cellStatus(c)
	}
	return st
}

// sweepStatus translates a sweep view into its wire shape, including the
// per-(buffer, dt) across-seed summary once the sweep is done.
func sweepStatus(v *view) *SweepStatus {
	sn := v.snapshot()
	st := &SweepStatus{
		ID:             v.id,
		Scenario:       v.spec.Name,
		TraceID:        v.tctx.TraceID.String(),
		Status:         sn.status,
		Error:          sn.errMsg,
		Created:        v.created,
		Finished:       sn.finishedAt(),
		Progress:       progressOf(sn.cells),
		Seeds:          v.seeds,
		DTs:            v.dts,
		Buffers:        v.buffers,
		CachedCells:    sn.cachedCells,
		CoalescedCells: sn.coalescedCells,
		NewCells:       sn.newCells,
		Cells:          make([]SweepCellStatus, len(sn.cells)),
	}
	for i, c := range sn.cells {
		cs := cellStatus(c)
		k := sn.keys[i]
		st.Cells[i] = SweepCellStatus{Buffer: k.Buffer, Seed: k.Seed, DT: k.DT, Done: cs.Done, Error: cs.Error, Result: cs.Result}
	}
	if sn.status == StatusDone {
		// Cells are buffer-major then dt then seed: each summary group's
		// results are contiguous and already in seed order.
		n := len(v.seeds)
		for g := 0; g+n <= len(sn.cells); g += n {
			results := make([]sim.Result, n)
			for j := 0; j < n; j++ {
				results[j] = sn.cells[g+j].res
			}
			st.Summary = append(st.Summary, SweepSummary{
				Buffer:      sn.keys[g].Buffer,
				DT:          sn.keys[g].DT,
				SeedSummary: scenario.AggregateSeeds(results),
			})
		}
	}
	return st
}

// metrics snapshots the counters.
func (s *Server) metrics() *Metrics {
	s.mu.Lock()
	tracked := len(s.views)
	runEntries := s.viewLRU.Len()
	cellEntries := s.cellLRU.Len()
	active := tracked - runEntries - s.junk.Len()
	s.mu.Unlock()

	queued, done := s.cellsQueued.Load(), s.cellsDone.Load()
	m := &Metrics{
		UptimeS:       time.Since(s.start).Seconds(),
		StartTime:     s.start,
		Build:         obs.BuildInfoLabels(),
		Workers:       s.workers,
		Submitted:     s.submitted.Load(),
		Sweeps:        s.sweeps.Load(),
		Explorations:  s.explorations.Load(),
		ExplorePoints: s.explorePoints.Load(),
		ExploreCells:  s.exploreCells.Load(),
		CacheHits:     s.hits.Load(),
		Coalesced:     s.coalesced.Load(),
		CacheMisses:   s.misses.Load(),
		CacheEntries:  runEntries,
		CacheCapacity: s.cacheRuns,
		Evictions:     s.evictions.Load(),
		CellHits:      s.cellHits.Load(),
		CellCoalesced: s.cellCoalesced.Load(),
		CellMisses:    s.cellMisses.Load(),
		CellEntries:   cellEntries,
		CellCapacity:  s.cacheCells,
		CellEvictions: s.cellEvicts.Load(),
		RunsTracked:   tracked,
		RunsActive:    active,
		QueueDepth:    int(queued - done),
		CellsRunning:  len(s.sem),
		SimsCompleted: s.simsOK.Load(),
		SimsFailed:    s.simsFailed.Load(),

		TicksSimulated:     s.ticksSimulated.Load(),
		TicksFastForwarded: s.ticksFastForwarded.Load(),
		TracePasses:        s.tracePasses.Load(),
	}
	if s.store != nil {
		m.DiskEnabled = true
		m.DiskCells = s.store.Len()
		m.DiskHits = s.diskHits.Load()
		m.DiskMisses = s.diskMisses.Load()
		m.DiskPuts = s.diskPuts.Load()
		m.DiskQuarantined = s.store.Quarantined()
	}
	if s.cluster != nil {
		m.ClusterSelf = s.cluster.self
		m.ClusterPeers = len(s.cluster.others)
		m.PeerRequests = s.peerRequests.Load()
		m.PeerRetries = s.peerRetries.Load()
		m.PeerFallbacks = s.peerFallbacks.Load()
		m.PeerCells = s.peerCells.Load()
		m.CellsDelegated = s.cellsDelegated.Load()
	}
	if m.Submitted > 0 {
		m.CacheHitRate = float64(m.CacheHits+m.Coalesced) / float64(m.Submitted)
	}
	if attach := m.CellHits + m.CellCoalesced + m.CellMisses; attach > 0 {
		m.CellHitRate = float64(m.CellHits+m.CellCoalesced) / float64(attach)
	}
	if m.UptimeS > 0 {
		// The lifetime average decays toward zero on an idle server; the
		// windowed rate beside it is the operationally honest number.
		m.SimsPerSec = float64(m.SimsCompleted) / m.UptimeS
	}
	m.SimsPerSec60 = s.rate.Rate()
	m.DroppedSpans = s.spans.Dropped()
	return m
}

// --- HTTP handlers ---

// maxSpecBytes bounds an inline spec submission.
const maxSpecBytes = 1 << 20

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleScenarios(w http.ResponseWriter, _ *http.Request) {
	specs := scenario.All()
	out := struct {
		Scenarios []ScenarioInfo `json:"scenarios"`
	}{Scenarios: make([]ScenarioInfo, 0, len(specs))}
	for _, spec := range specs {
		out.Scenarios = append(out.Scenarios, toScenarioInfo(spec))
	}
	writeJSON(w, http.StatusOK, out)
}

// errUnknownScenario marks a submission naming no registered scenario:
// the one refusal answered 404 rather than 400.
var errUnknownScenario = errors.New("unknown scenario")

// resolveSpec resolves a submission's scenario selection — a registry name
// or an inline spec, exactly one.
func resolveSpec(name string, inline json.RawMessage) (*scenario.Spec, error) {
	switch {
	case name != "" && len(inline) > 0:
		return nil, errors.New("set either scenario or spec, not both")
	case name != "":
		spec, ok := scenario.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("%w %q (GET /scenarios lists the registry)", errUnknownScenario, name)
		}
		return spec, nil
	case len(inline) > 0:
		return scenario.ParseSpec(inline)
	default:
		return nil, errors.New("a submission needs a scenario name or an inline spec")
	}
}

// handlePost serves one submission endpoint: it decodes the body into a
// fresh R (unknown fields rejected), submits it, and answers 200 when the
// view is already terminal (a pure cache hit) and 202 while it drains.
func handlePost[R any, ST wireStatus](what string, submit func(*R, obs.SpanContext) (ST, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		var r R
		dec := json.NewDecoder(req.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			writeError(w, http.StatusBadRequest, "decoding %s: %v", what, err)
			return
		}
		st, err := submit(&r, parentSpan(req))
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, errUnknownScenario) {
				code = http.StatusNotFound
			}
			writeError(w, code, "%v", err)
			return
		}
		code := http.StatusAccepted
		if _, status, _ := st.head(); Terminal(status) {
			code = http.StatusOK
		}
		writeJSON(w, code, st)
	}
}

func (s *Server) postRun(rr *RunRequest, parent obs.SpanContext) (*RunStatus, error) {
	spec, err := resolveSpec(rr.Scenario, rr.Spec)
	if err != nil {
		return nil, err
	}
	opt := scenario.RunOptions{Seed: rr.Seed, DT: rr.DT}
	// Zero means "the spec's default", so the contract is finite and
	// non-negative — not "positive".
	if err = opt.Validate(); err != nil {
		return nil, err
	}
	simOn, err := s.validSimulateOn(rr)
	if err != nil {
		return nil, err
	}
	return s.submit(spec, opt, rr.NoForward, simOn, parent), nil
}

func (s *Server) postSweep(sr *SweepRequest, parent obs.SpanContext) (*SweepStatus, error) {
	spec, err := resolveSpec(sr.Scenario, sr.Spec)
	if err != nil {
		return nil, err
	}
	ax, err := ResolveSweepAxes(spec, sr)
	if err != nil {
		return nil, err
	}
	return s.submitSweep(spec, ax, parent), nil
}

// lookupView fetches a tracked view of the given kind, 404ing otherwise.
func (s *Server) lookupView(w http.ResponseWriter, req *http.Request, kind *viewKind) *view {
	id := req.PathValue("id")
	s.mu.Lock()
	v := s.views[id]
	s.mu.Unlock()
	if v == nil || v.kind != kind {
		writeError(w, http.StatusNotFound, "no %s %q", kind.name, id)
		return nil
	}
	return v
}

// handleGet serves a view's current status, with its progress version in
// the X-View-Version header. ?wait= first holds the request until the view
// has news (wait.go).
func (s *Server) handleGet(kind *viewKind) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		wait, since, hasSince, err := parseWait(req.URL.Query())
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		v := s.lookupView(w, req, kind)
		if v == nil {
			return
		}
		if wait > 0 {
			s.awaitView(req.Context(), v, wait, since, hasSince)
		}
		// The version is read before the body's snapshot, so it never
		// claims news the body does not carry.
		w.Header().Set(viewVersionHeader, s.version(v))
		writeJSON(w, http.StatusOK, kind.status(v))
	}
}

// handleDelete cancels an in-flight view or forgets a finished one, then
// serves its status. Shared cells referenced by another live view survive
// either way.
func (s *Server) handleDelete(kind *viewKind) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		v := s.lookupView(w, req, kind)
		if v == nil {
			return
		}
		s.mu.Lock()
		v.mu.Lock()
		terminal := Terminal(v.status)
		if !terminal {
			v.canceled = true
		}
		v.mu.Unlock()
		if !terminal {
			// Leave the whole-run index immediately so new identical
			// submissions start fresh instead of attaching to a dying run,
			// and release the cells: ones nobody else wants are cancelled.
			// An exploration's engine is stopped too, so no further batches
			// attach.
			if v.vcancel != nil {
				v.vcancel()
			}
			if v.fp != "" && s.byFP[v.fp] == v {
				delete(s.byFP, v.fp)
			}
			s.releaseCellsLocked(v)
			s.notify()
		} else {
			s.forgetView(v)
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, kind.status(v))
	}
}

// handleMetrics serves the Prometheus text exposition by default; a client
// asking for application/json (the pre-observability shape, still served
// unconditionally at /metrics.json) gets the JSON report instead.
func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if strings.Contains(req.Header.Get("Accept"), "application/json") {
		writeJSON(w, http.StatusOK, s.metrics())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.reg.WritePrometheus(w)
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics())
}

// parentSpan extracts the submitter's span context from a request's
// traceparent header; the zero context (mint a fresh trace) otherwise.
func parentSpan(req *http.Request) obs.SpanContext {
	sc, _ := obs.ParseTraceparent(req.Header.Get(obs.TraceparentHeader))
	return sc
}
