package service

import (
	"encoding/json"
	"time"

	"react/internal/buffer"
	"react/internal/explore"
	"react/internal/obs"
	"react/internal/scenario"
	"react/internal/sim"
)

// This file defines the service's HTTP/JSON wire shapes, shared verbatim by
// the server and the Go client.

// Run lifecycle states reported by RunStatus.Status.
const (
	// StatusRunning: the run's cells are queued or simulating; completed
	// cells are already visible in RunStatus.Cells.
	StatusRunning = "running"
	// StatusDone: every cell completed successfully.
	StatusDone = "done"
	// StatusFailed: at least one cell errored; RunStatus.Error carries the
	// first error by cell index.
	StatusFailed = "failed"
	// StatusCanceled: the run was cancelled before draining.
	StatusCanceled = "canceled"
)

// Terminal reports whether a run status is final.
func Terminal(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusCanceled
}

// RunRequest submits a scenario run: either a registered scenario by name
// or an inline JSON spec (exactly one must be set). Seed 0 means "unset":
// the spec's own seed applies, which itself defaults to 1 — an explicit
// seed 0 is not expressible anywhere in the stack. DT 0 keeps the spec's
// timestep.
type RunRequest struct {
	Scenario string          `json:"scenario,omitempty"`
	Spec     json.RawMessage `json:"spec,omitempty"`
	Seed     uint64          `json:"seed,omitempty"`
	DT       float64         `json:"dt,omitempty"`
	// NoForward pins the run's fresh cells to the receiving node even in
	// cluster mode. Set on peer-to-peer forwarded submissions to break
	// forwarding cycles; harmless (and occasionally useful) from clients.
	// Such a run gets an id of its own: it is never merged with an
	// identical run, though its cells are shared with it.
	NoForward bool `json:"no_forward,omitempty"`
	// SimulateOn, with NoForward, asks the receiving node to simulate the
	// run's cache misses on another ring member: the receiver owns the
	// cells, answers its hits, delegates its misses to that member and
	// persists them when they return. Set by a peer whose placement put an
	// owned-elsewhere cell on a less-loaded member. It must name a ring
	// member; anything else, or a request without NoForward or to a node
	// outside cluster mode, is refused with 400.
	SimulateOn string `json:"simulate_on,omitempty"`
}

// CellResult is one buffer's completed simulation, the service's view of a
// sim.Result (recordings excluded).
type CellResult struct {
	Latency       float64            `json:"latency_s"`
	OnTime        float64            `json:"on_time_s"`
	Duration      float64            `json:"duration_s"`
	Duty          float64            `json:"duty"`
	Cycles        int                `json:"cycles"`
	MeanCycle     float64            `json:"mean_cycle_s"`
	Stored        float64            `json:"stored_j"`
	InitialStored float64            `json:"initial_stored_j,omitempty"`
	Metrics       map[string]float64 `json:"metrics"`
	Ledger        buffer.Ledger      `json:"ledger"`
	BalanceError  float64            `json:"energy_balance_error"`
}

func toCellResult(r sim.Result) *CellResult {
	return &CellResult{
		Latency:       r.Latency,
		OnTime:        r.OnTime,
		Duration:      r.Duration,
		Duty:          r.OnFraction(),
		Cycles:        r.Cycles,
		MeanCycle:     r.MeanCycle,
		Stored:        r.Stored,
		InitialStored: r.InitialStored,
		Metrics:       r.Metrics,
		Ledger:        r.Ledger,
		BalanceError:  r.EnergyBalanceError(),
	}
}

// fromCellResult reverses toCellResult as far as the wire shape allows:
// the simulation fields a peer's response carries are enough to assemble
// views, summaries and persisted entries bit-identically (Duty and
// BalanceError are derived, so they are not read back). The workload name
// is not on the wire: the caller passes the spec's bench, which is every
// workload's Name, so a delegated cell persists the bytes a local
// simulation writes. Recordings stay zero.
func fromCellResult(cr *CellResult, buffer, workload string) sim.Result {
	return sim.Result{
		Buffer:        buffer,
		Workload:      workload,
		Latency:       cr.Latency,
		OnTime:        cr.OnTime,
		Duration:      cr.Duration,
		Cycles:        cr.Cycles,
		MeanCycle:     cr.MeanCycle,
		Stored:        cr.Stored,
		InitialStored: cr.InitialStored,
		Metrics:       cr.Metrics,
		Ledger:        cr.Ledger,
	}
}

// CellStatus is one buffer's slot in a run: pending, failed, or completed
// with its result — partial results are visible while the run drains.
type CellStatus struct {
	Buffer string      `json:"buffer"`
	Done   bool        `json:"done"`
	Error  string      `json:"error,omitempty"`
	Result *CellResult `json:"result,omitempty"`
}

// Progress is a view's completion accounting, updated on every poll while
// the view drains: cells done over total, plus the terminal cells'
// executor tick counts (cells served from cache or by a cluster peer cost
// this node no stepping and contribute zero ticks).
type Progress struct {
	CellsDone          int    `json:"cells_done"`
	CellsTotal         int    `json:"cells_total"`
	TicksSimulated     uint64 `json:"ticks_simulated"`
	TicksFastForwarded uint64 `json:"ticks_fastforwarded"`
}

// RunStatus is the submit/poll view of a run.
type RunStatus struct {
	ID          string `json:"id"`
	Scenario    string `json:"scenario"`
	Seed        uint64 `json:"seed"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// TraceID addresses the run's span tree (GET /runs/{id}/trace).
	TraceID string `json:"trace_id,omitempty"`
	Status  string `json:"status"`
	// Cached marks a submission served entirely from the result cache;
	// Coalesced marks one attached to an identical run already in flight.
	// Both are properties of the submission, false on later polls.
	Cached    bool         `json:"cached,omitempty"`
	Coalesced bool         `json:"coalesced,omitempty"`
	Error     string       `json:"error,omitempty"`
	Created   time.Time    `json:"created"`
	Finished  *time.Time   `json:"finished,omitempty"`
	Progress  Progress     `json:"progress"`
	Cells     []CellStatus `json:"cells"`
}

// Result returns the completed cell for a buffer display name.
func (st *RunStatus) Result(buffer string) (*CellResult, bool) {
	for _, c := range st.Cells {
		if c.Buffer == buffer && c.Result != nil {
			return c.Result, true
		}
	}
	return nil, false
}

// SweepRequest submits a sweep: one spec (a registered scenario by name or
// an inline JSON spec, exactly one) crossed with a seed axis, an optional
// timestep axis, and an optional buffer subset.
//
// The seed axis is either an explicit list (each ≥ 1) or a range
// seed_from..seed_to (from defaults to 1); with neither, the spec's own
// resolved seed is the single point. The dt axis defaults to the spec's
// timestep; dt 0 in the list means "the spec's default". The buffer subset
// names buffer display names of the spec; empty means every buffer.
type SweepRequest struct {
	Scenario string          `json:"scenario,omitempty"`
	Spec     json.RawMessage `json:"spec,omitempty"`
	Seeds    []uint64        `json:"seeds,omitempty"`
	SeedFrom uint64          `json:"seed_from,omitempty"`
	SeedTo   uint64          `json:"seed_to,omitempty"`
	DTs      []float64       `json:"dts,omitempty"`
	Buffers  []string        `json:"buffers,omitempty"`
}

// SweepCellStatus is one (buffer, dt, seed) cell of a sweep: pending,
// failed, or completed with its result — partial results are visible while
// the sweep drains.
type SweepCellStatus struct {
	Buffer string      `json:"buffer"`
	Seed   uint64      `json:"seed"`
	DT     float64     `json:"dt"`
	Done   bool        `json:"done"`
	Error  string      `json:"error,omitempty"`
	Result *CellResult `json:"result,omitempty"`
}

// SweepSummary is one aggregate row of a completed sweep: one (buffer, dt)
// group's across-seed statistics, computed by scenario.AggregateSeeds —
// the same code `reactsim -seeds` reports through, so remote summaries are
// bit-identical to local sweeps of the same spec and seeds.
type SweepSummary struct {
	Buffer string  `json:"buffer"`
	DT     float64 `json:"dt"`
	scenario.SeedSummary
}

// SweepStatus is the submit/poll view of a sweep: the resolved axes, every
// cell's state, and (once done) the per-axis summary rows. CachedCells,
// CoalescedCells and NewCells are the submission's cache disposition: how
// many cells were served from the cache, joined in flight, and freshly
// simulated.
type SweepStatus struct {
	ID       string `json:"id"`
	Scenario string `json:"scenario"`
	// TraceID addresses the sweep's span tree (GET /sweeps/{id}/trace).
	TraceID        string            `json:"trace_id,omitempty"`
	Status         string            `json:"status"`
	Error          string            `json:"error,omitempty"`
	Created        time.Time         `json:"created"`
	Finished       *time.Time        `json:"finished,omitempty"`
	Progress       Progress          `json:"progress"`
	Seeds          []uint64          `json:"seeds"`
	DTs            []float64         `json:"dts"`
	Buffers        []string          `json:"buffers"`
	CachedCells    int               `json:"cached_cells"`
	CoalescedCells int               `json:"coalesced_cells"`
	NewCells       int               `json:"new_cells"`
	Cells          []SweepCellStatus `json:"cells"`
	Summary        []SweepSummary    `json:"summary,omitempty"`
}

// Row returns the completed summary row for a buffer display name and
// resolved timestep (pass 0 for a single-dt sweep's only axis point).
func (st *SweepStatus) Row(buffer string, dt float64) (*SweepSummary, bool) {
	for i := range st.Summary {
		//lint:reactlint-ignore dtarith row lookup by the exact submitted axis value, which the summary echoes bit-for-bit
		if st.Summary[i].Buffer == buffer && (dt == 0 || st.Summary[i].DT == dt) {
			return &st.Summary[i], true
		}
	}
	return nil, false
}

// ExploreCellStatus is one probed cell of an exploration: seed Seed of
// lattice point Point. Cells appear batch by batch as the strategy probes,
// and carry results as they complete.
type ExploreCellStatus struct {
	Point  int         `json:"point"`
	Buffer string      `json:"buffer"`
	Seed   uint64      `json:"seed"`
	DT     float64     `json:"dt"`
	Done   bool        `json:"done"`
	Error  string      `json:"error,omitempty"`
	Result *CellResult `json:"result,omitempty"`
}

// ExploreStatus is the submit/poll view of an exploration. While the
// strategy probes, Cells grows and the cache accounting
// (CachedCells/CoalescedCells/NewCells) grows with it; the assembled
// explore.Result — evaluated points, bisection bests, Pareto frontiers —
// appears once the exploration is done. Its numbers are computed by the
// same engine a local `reactsim -explore` runs, so remote results are
// bit-identical to local ones for the same space and seeds.
type ExploreStatus struct {
	ID       string `json:"id"`
	Scenario string `json:"scenario"`
	Strategy string `json:"strategy"`
	// TraceID addresses the exploration's span tree
	// (GET /explorations/{id}/trace), merged across cluster peers.
	TraceID         string              `json:"trace_id,omitempty"`
	Status          string              `json:"status"`
	Error           string              `json:"error,omitempty"`
	Created         time.Time           `json:"created"`
	Finished        *time.Time          `json:"finished,omitempty"`
	Progress        Progress            `json:"progress"`
	Seeds           []uint64            `json:"seeds"`
	TotalPoints     int                 `json:"total_points"`
	EvaluatedPoints int                 `json:"evaluated_points"`
	CachedCells     int                 `json:"cached_cells"`
	CoalescedCells  int                 `json:"coalesced_cells"`
	NewCells        int                 `json:"new_cells"`
	Cells           []ExploreCellStatus `json:"cells"`
	Result          *explore.Result     `json:"result,omitempty"`
}

// wireStatus is what the HTTP layer and the client's generic handle read
// of the three view status types: the view's kind (its URL family) and
// the id, status and error every view reports.
type wireStatus interface {
	kind() *viewKind
	head() (id, status, errMsg string)
}

func (*RunStatus) kind() *viewKind     { return runKind }
func (*SweepStatus) kind() *viewKind   { return sweepKind }
func (*ExploreStatus) kind() *viewKind { return exploreKind }

func (st *RunStatus) head() (string, string, string)     { return st.ID, st.Status, st.Error }
func (st *SweepStatus) head() (string, string, string)   { return st.ID, st.Status, st.Error }
func (st *ExploreStatus) head() (string, string, string) { return st.ID, st.Status, st.Error }

// ScenarioInfo is one registry entry in the GET /scenarios listing.
type ScenarioInfo struct {
	Name        string   `json:"name"`
	Title       string   `json:"title,omitempty"`
	Paper       bool     `json:"paper,omitempty"`
	Long        bool     `json:"long,omitempty"`
	Bench       string   `json:"bench"`
	Trace       string   `json:"trace"`
	Buffers     []string `json:"buffers"`
	Fingerprint string   `json:"fingerprint"`
}

func toScenarioInfo(s *scenario.Spec) ScenarioInfo {
	info := ScenarioInfo{
		Name:  s.Name,
		Title: s.Title,
		Paper: s.Paper,
		Long:  s.Long,
		Bench: s.Workload.Bench,
		Trace: s.Trace.Gen,
	}
	for _, bs := range s.Buffers {
		info.Buffers = append(info.Buffers, bs.DisplayName())
	}
	if fp, err := s.Fingerprint(); err == nil {
		info.Fingerprint = fp
	}
	return info
}

// Metrics is the JSON metrics report (GET /metrics.json, or GET /metrics
// with Accept: application/json): cache effectiveness at both granularities
// (whole-run submissions and content-addressed cells), queue state and
// simulation throughput. The same counters back the Prometheus text
// exposition at GET /metrics.
type Metrics struct {
	UptimeS float64 `json:"uptime_s"`
	// StartTime is when the server started; Build is the binary's build
	// metadata (Go toolchain, module version, VCS revision when stamped).
	StartTime     time.Time         `json:"start_time"`
	Build         map[string]string `json:"build,omitempty"`
	Workers       int               `json:"workers"`
	Submitted     uint64            `json:"runs_submitted"`
	Sweeps        uint64            `json:"sweeps_submitted"`
	Explorations  uint64            `json:"explorations_submitted"`
	ExplorePoints uint64            `json:"explore_points_evaluated"`
	ExploreCells  uint64            `json:"explore_cells"`
	CacheHits     uint64            `json:"cache_hits"`
	Coalesced     uint64            `json:"coalesced"`
	CacheMisses   uint64            `json:"cache_misses"`
	CacheHitRate  float64           `json:"cache_hit_rate"`
	CacheEntries  int               `json:"cache_entries"`
	CacheCapacity int               `json:"cache_capacity"`
	Evictions     uint64            `json:"cache_evictions"`
	CellHits      uint64            `json:"cell_hits"`
	CellCoalesced uint64            `json:"cell_coalesced"`
	CellMisses    uint64            `json:"cell_misses"`
	CellHitRate   float64           `json:"cell_hit_rate"`
	CellEntries   int               `json:"cell_entries"`
	CellCapacity  int               `json:"cell_capacity"`
	CellEvictions uint64            `json:"cell_evictions"`
	RunsTracked   int               `json:"runs_tracked"`
	RunsActive    int               `json:"runs_active"`
	QueueDepth    int               `json:"queue_depth"`
	CellsRunning  int               `json:"cells_running"`
	SimsCompleted uint64            `json:"sims_completed"`
	SimsFailed    uint64            `json:"sims_failed"`
	// SimsPerSec is the lifetime average (sims completed over uptime) and
	// decays toward zero while the server idles; SimsPerSec60 is the
	// trailing-minute rate — the number to watch on a live node.
	SimsPerSec   float64 `json:"sims_per_sec"`
	SimsPerSec60 float64 `json:"sims_per_sec_60s"`
	// DroppedSpans counts spans discarded by the span store's bounds.
	DroppedSpans uint64 `json:"dropped_spans,omitempty"`

	// Batched-executor accounting: cell-ticks actually stepped, cell-ticks
	// skipped by the dead-time fast-forward, and lockstep passes over a
	// trace (one per batch, however many cells shared it — a sweep of S
	// seeds over K buffers makes S passes, not S×K).
	TicksSimulated     uint64 `json:"ticks_simulated"`
	TicksFastForwarded uint64 `json:"ticks_fastforwarded"`
	TracePasses        uint64 `json:"trace_passes"`

	// Disk-tier accounting, present when the node has a persistent store:
	// entries on disk, memory misses served from (or missed by) disk,
	// write-throughs, and entries quarantined as corrupt since open.
	DiskEnabled     bool   `json:"disk_enabled,omitempty"`
	DiskCells       int    `json:"disk_cells,omitempty"`
	DiskHits        uint64 `json:"disk_hits,omitempty"`
	DiskMisses      uint64 `json:"disk_misses,omitempty"`
	DiskPuts        uint64 `json:"disk_puts,omitempty"`
	DiskQuarantined uint64 `json:"disk_quarantined,omitempty"`

	// Cluster accounting, present in cluster mode: ring identity, peer
	// run submissions (with retries), fan-outs degraded to local
	// simulation, cells answered by peers, and owned cells another member
	// simulated (persisted here). With a disk tier and content-addressed
	// cells, a node's disk_puts equals its sims_completed plus
	// cells_delegated.
	ClusterSelf    string `json:"cluster_self,omitempty"`
	ClusterPeers   int    `json:"cluster_peers,omitempty"`
	PeerRequests   uint64 `json:"peer_requests,omitempty"`
	PeerRetries    uint64 `json:"peer_retries,omitempty"`
	PeerFallbacks  uint64 `json:"peer_fallbacks,omitempty"`
	PeerCells      uint64 `json:"peer_cells,omitempty"`
	CellsDelegated uint64 `json:"cells_delegated,omitempty"`
}

// TraceResponse is the GET trace report. The per-view endpoints
// (/runs/{id}/trace and friends) return the assembled tree, merged across
// cluster peers; the raw endpoint (/traces/{id}) returns this node's flat
// spans only — the primitive the merge is built from.
type TraceResponse struct {
	TraceID string          `json:"trace_id"`
	Spans   []obs.Span      `json:"spans,omitempty"`
	Roots   []*obs.SpanTree `json:"roots,omitempty"`
	// Dropped counts spans the span store discarded from this trace;
	// Peers lists cluster members whose spans could not be merged (the
	// tree is still served, just incomplete).
	Dropped     uint64   `json:"dropped_spans,omitempty"`
	PeersFailed []string `json:"peers_failed,omitempty"`
}

// errorBody is the JSON error envelope for non-2xx responses.
type errorBody struct {
	Error string `json:"error"`
}
