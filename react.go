// Package react is a simulation library for energy-adaptive buffering in
// batteryless, energy-harvesting systems. It reproduces REACT (Williams &
// Hicks, ASPLOS 2024): a buffer built from a small last-level capacitor
// plus isolated, reconfigurable capacitor banks that expand to capture
// surplus power and reconfigure into series to reclaim charge under
// deficit — combining the reactivity of small static buffers with the
// capacity of large ones.
//
// The library bundles everything needed to study such systems end to end:
//
//   - circuit-level capacitor physics with exact charge-sharing losses
//   - the REACT buffer and controller, static baselines, and the Morphy
//     unified switched-capacitor baseline
//   - synthetic RF/solar harvesting traces matched to the paper's Table 3,
//     plus CSV import for real recordings
//   - an MSP430-class device model with the paper's four benchmarks (data
//     encryption, sense-and-compute, radio transmit, packet forwarding)
//   - a discrete-time simulation engine with full energy-conservation
//     accounting
//
// # Quick start
//
//	buf := react.NewREACT(react.DefaultConfig())
//	dev := react.NewDevice(react.DefaultProfile(), react.NewDataEncryption(0.6e-3))
//	res, err := react.Run(react.SimConfig{
//		Frontend: react.NewFrontend(react.RFCart(1), nil),
//		Buffer:   buf,
//		Device:   dev,
//	})
//
// See the examples directory for complete programs and EXPERIMENTS.md for
// the paper-reproduction harness.
package react

import (
	"context"
	"fmt"
	"io"

	"react/internal/buffer"
	"react/internal/capybara"
	"react/internal/ckpt"
	"react/internal/core"
	"react/internal/explore"
	"react/internal/harvest"
	"react/internal/mcu"
	"react/internal/morphy"
	"react/internal/radio"
	"react/internal/runner"
	"react/internal/scenario"
	"react/internal/service"
	"react/internal/sim"
	"react/internal/timekeeper"
	"react/internal/trace"
	"react/internal/workload"
)

// Core buffer types.
type (
	// Buffer is the common interface over every energy-buffer design.
	Buffer = buffer.Buffer
	// Leveler is the capacitance-level interface adaptive buffers expose
	// for software-directed longevity guarantees.
	Leveler = buffer.Leveler
	// Ledger is the energy accounting every buffer maintains.
	Ledger = buffer.Ledger
	// StaticConfig describes a fixed-size buffer capacitor.
	StaticConfig = buffer.StaticConfig
	// DewdropConfig describes an adaptive-enable-voltage buffer (§2.4).
	DewdropConfig = buffer.DewdropConfig
	// DewdropBuffer is the Dewdrop baseline implementation: a static
	// buffer (its embedded Static field) plus the task-matched enable
	// voltage.
	DewdropBuffer = buffer.Dewdrop
	// Config describes a REACT buffer (last-level buffer, banks,
	// thresholds, overheads).
	Config = core.Config
	// BankSpec describes one reconfigurable REACT bank.
	BankSpec = core.BankSpec
	// BankState is a bank's switch state (disconnected/series/parallel).
	BankState = core.BankState
	// REACTBuffer is the adaptive buffer implementation.
	REACTBuffer = core.Buffer
	// MorphyConfig describes the Morphy baseline array.
	MorphyConfig = morphy.Config
	// MorphyBuffer is the Morphy baseline implementation.
	MorphyBuffer = morphy.Buffer
	// CapybaraConfig describes the Capybara-style multiplexed static
	// array baseline (§2.3 related work).
	CapybaraConfig = capybara.Config
	// CapybaraBuffer is the Capybara-style baseline implementation.
	CapybaraBuffer = capybara.Buffer
	// Timekeeper is a remanence-based outage clock (citation [8]).
	Timekeeper = timekeeper.Clock
)

// Bank switch states.
const (
	Disconnected = core.Disconnected
	Series       = core.Series
	Parallel     = core.Parallel
)

// Trace and frontend types.
type (
	// Trace is a harvested-power time series.
	Trace = trace.Trace
	// TraceStats summarizes a trace (Table 3 columns).
	TraceStats = trace.Stats
	// Converter models a harvester power-conversion stage.
	Converter = harvest.Converter
	// Frontend replays a trace through a converter into a buffer.
	Frontend = harvest.Frontend
)

// Device and simulation types.
type (
	// Profile is the device's electrical envelope.
	Profile = mcu.Profile
	// Device is the computational backend.
	Device = mcu.Device
	// Workload is a benchmark program running on the device.
	Workload = mcu.Workload
	// Env is the execution environment a workload sees each step.
	Env = mcu.Env
	// SimConfig configures one simulation run.
	SimConfig = sim.Config
	// Result is a completed run's outcome.
	Result = sim.Result
	// Sample is one recorded voltage/state point.
	Sample = sim.Sample
)

// NewREACT builds a REACT buffer from cfg.
func NewREACT(cfg Config) *REACTBuffer { return core.New(cfg) }

// DefaultConfig returns the paper's Table 1 REACT implementation
// (770 µF last-level buffer, five banks, 770 µF–18.03 mF).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewStatic builds a fixed-size buffer.
func NewStatic(cfg StaticConfig) Buffer { return buffer.NewStatic(cfg) }

// NewDewdrop builds a Dewdrop-style buffer (§2.4 related work): a static
// capacitor whose enable voltage adapts to the pending task's energy.
func NewDewdrop(cfg DewdropConfig) *DewdropBuffer { return buffer.NewDewdrop(cfg) }

// NewMorphy builds a Morphy unified switched-capacitor buffer.
func NewMorphy(cfg MorphyConfig) *MorphyBuffer { return morphy.New(cfg) }

// DefaultMorphyConfig returns the paper's Morphy baseline (8×2 mF, eleven
// configurations spanning 0.25–16 mF).
func DefaultMorphyConfig() MorphyConfig { return morphy.DefaultConfig() }

// NewCapybara builds a Capybara-style multiplexed static array.
func NewCapybara(cfg CapybaraConfig) *CapybaraBuffer { return capybara.New(cfg) }

// DefaultCapybaraConfig returns a four-bank array matching REACT's total
// capacitance.
func DefaultCapybaraConfig() CapybaraConfig { return capybara.DefaultConfig() }

// NewTimekeeper returns a remanence outage clock with a multi-minute range.
func NewTimekeeper() *Timekeeper { return timekeeper.DefaultClock() }

// LevelFor returns the smallest capacitance level whose guarantee covers
// the requested energy.
func LevelFor(l Leveler, energy float64) (int, bool) { return buffer.LevelFor(l, energy) }

// VoltageAfterReclaim computes the paper's Equation 1: the rail voltage
// after a parallel→series charge reclamation.
func VoltageAfterReclaim(n int, cUnit, cLast, vLow float64) float64 {
	return core.VoltageAfterReclaim(n, cUnit, cLast, vLow)
}

// MaxUnitCapacitance computes the paper's Equation 2: the largest bank
// capacitor for which reclamation spikes stay below vHigh.
func MaxUnitCapacitance(n int, cLast, vLow, vHigh float64) float64 {
	return core.MaxUnitCapacitance(n, cLast, vLow, vHigh)
}

// Synthetic evaluation traces (deterministic per seed; see Table 3).
func RFCart(seed uint64) *Trace          { return trace.RFCart(seed) }
func RFObstructed(seed uint64) *Trace    { return trace.RFObstructed(seed) }
func RFMobile(seed uint64) *Trace        { return trace.RFMobile(seed) }
func SolarCampus(seed uint64) *Trace     { return trace.SolarCampus(seed) }
func SolarCommute(seed uint64) *Trace    { return trace.SolarCommute(seed) }
func PedestrianSolar(seed uint64) *Trace { return trace.Fig1Pedestrian(seed) }
func NightTrace(seed uint64) *Trace      { return trace.Night(seed) }

// Stress traces beyond the paper's Table 3 (deterministic per seed), used
// by the scenario catalogue.
func EnergyAttackTrace(seed uint64) *Trace    { return trace.EnergyAttack(seed) }
func ColdStartTrace(seed uint64) *Trace       { return trace.ColdStart(seed) }
func NightHeavySolarTrace(seed uint64) *Trace { return trace.NightHeavySolar(seed) }
func Solar72hTrace(seed uint64) *Trace        { return trace.Solar72h(seed) }

// SteadyTrace returns a constant-power trace at 1 s spacing.
func SteadyTrace(name string, mean, duration float64) *Trace {
	return trace.Steady(name, mean, duration)
}

// TraceByName builds any registered synthetic trace generator by its
// canonical name ("rf-cart", "energy-attack", ...); TraceGenerators lists
// them.
func TraceByName(name string, seed uint64) (*Trace, error) { return trace.ByName(name, seed) }

// TraceGenerators returns the canonical generator names, sorted.
func TraceGenerators() []string { return trace.GeneratorNames() }

// EvaluationTraces returns the five Table 3 traces in order.
func EvaluationTraces(seed uint64) []*Trace { return trace.Evaluation(seed) }

// ReadTraceCSV parses a "time_s,power_w" trace recording.
func ReadTraceCSV(name string, r io.Reader) (*Trace, error) { return trace.ReadCSV(name, r) }

// NewFrontend pairs a trace with a converter (nil means the trace records
// delivered power directly, as the paper's replay frontend does).
func NewFrontend(tr *Trace, conv Converter) *Frontend { return harvest.NewFrontend(tr, conv) }

// Converter models.
func IdentityConverter() Converter    { return harvest.Identity{} }
func RFRectifierConverter() Converter { return harvest.DefaultRF() }
func SolarBoostConverter() Converter  { return harvest.DefaultSolar() }

// NewDevice couples a device profile with a workload.
func NewDevice(prof Profile, wl Workload) *Device { return mcu.NewDevice(prof, wl) }

// DefaultProfile returns the paper's testbed envelope (3.3 V enable, 1.8 V
// brownout, 1.5 mA active, 4 µA sleep).
func DefaultProfile() Profile { return mcu.DefaultProfile() }

// ProfileNames lists the registered device profiles ("default",
// "degraded", ...) accepted by scenario device specs.
func ProfileNames() []string { return mcu.ProfileNames() }

// Checkpoint schemes: pluggable backup/restore strategies a device can
// carry (set Device.Scheme, or the scenario spec's device checkpoint
// block).
type (
	// CheckpointConfig is the JSON-expressible scheme selection.
	CheckpointConfig = ckpt.Config
	// CheckpointScheme is a built trigger/cost policy.
	CheckpointScheme = ckpt.Scheme
)

// CheckpointSchemes lists the registered scheme names ("none", "odab",
// "periodic").
func CheckpointSchemes() []string { return ckpt.Names() }

// NewCheckpointScheme builds a scheme from its configuration; the "none"
// scheme (and the zero config) build the nil scheme — a flat-boot device.
func NewCheckpointScheme(cfg CheckpointConfig) (CheckpointScheme, error) { return ckpt.Build(cfg) }

// Benchmark workloads (§4.2).
func NewDataEncryption(activeI float64) Workload { return workload.NewDataEncryption(activeI) }
func NewSenseCompute(sleepI float64) Workload    { return workload.NewSenseCompute(sleepI) }
func NewRadioTransmit(sleepI float64) Workload   { return workload.NewRadioTransmit(sleepI) }

// Extended benchmark workloads (the scenario catalogue's ML and MIX).
func NewMLInference(sleepI float64) Workload { return workload.NewMLInference(sleepI) }
func NewMixedDuty(sleepI float64) Workload   { return workload.NewMixedDuty(sleepI) }

// NewSenseComputeWithTimekeeper builds the SC workload tracking its
// deadlines with a remanence timekeeper instead of a perfect clock; the
// workload reports the resulting scheduling error as "timing_err_mean".
func NewSenseComputeWithTimekeeper(sleepI float64, clock *Timekeeper) Workload {
	w := workload.NewSenseCompute(sleepI)
	w.Clock = clock
	return w
}

// NewPacketForward builds the PF workload over a Poisson arrival schedule.
func NewPacketForward(sleepI float64, seed uint64, duration, meanInterarrival float64) Workload {
	return workload.NewPacketForward(sleepI, radio.Arrivals(seed, duration, meanInterarrival))
}

// Run executes a simulation to completion.
func Run(cfg SimConfig) (Result, error) { return sim.Run(cfg) }

// Scenario-subsystem types: the declarative layer that names a trace, a
// converter, a device profile, a workload and a buffer set, and runs the
// combination through the experiment engine. The registry ships the
// paper's full evaluation grid plus the extended stress catalogue
// (energy attacks, cold starts, multi-day persistence, ML inference,
// packet storms); `reactsim -list` prints it.
type (
	// Scenario is a declarative simulation scenario (spec + knobs).
	Scenario = scenario.Spec
	// ScenarioTrace selects a scenario's harvested-power input.
	ScenarioTrace = scenario.TraceSpec
	// ScenarioDevice selects a scenario's device platform.
	ScenarioDevice = scenario.DeviceSpec
	// ScenarioWorkload selects a scenario's benchmark program.
	ScenarioWorkload = scenario.WorkloadSpec
	// ScenarioBuffer selects one energy buffer of a scenario.
	ScenarioBuffer = scenario.BufferSpec
	// ScenarioStatic describes a custom fixed-size buffer capacitor.
	ScenarioStatic = scenario.StaticSpec
	// ScenarioReact describes a REACT buffer with a changed configuration
	// (the §5.1 no-poll baseline).
	ScenarioReact = scenario.ReactSpec
	// ScenarioOptions tunes one scenario run (seed, timestep, recording,
	// probe); the worker pool is RunScenario's default or Scenario.Run's
	// runner argument.
	ScenarioOptions = scenario.RunOptions
	// ScenarioRun is a completed scenario: one Result per buffer.
	ScenarioRun = scenario.Run
)

// Scenarios returns every registered scenario (the extended catalogue
// first, then the paper grid), as independent clones.
func Scenarios() []*Scenario { return scenario.All() }

// ScenarioByName returns a clone of the named registered scenario.
func ScenarioByName(name string) (*Scenario, bool) { return scenario.Lookup(name) }

// RegisterScenario validates s and adds it to the process-wide registry,
// making it runnable by name (including from `reactsim -scenario`).
func RegisterScenario(s *Scenario) error { return scenario.Register(s) }

// ParseScenario builds and validates a Scenario from its JSON encoding.
func ParseScenario(data []byte) (*Scenario, error) { return scenario.ParseSpec(data) }

// RunScenario runs the named registered scenario: every buffer in its set,
// scheduled over the experiment engine's worker pool.
func RunScenario(ctx context.Context, name string, opt ScenarioOptions) (*ScenarioRun, error) {
	s, ok := scenario.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("react: unknown scenario %q (react.Scenarios lists the registry)", name)
	}
	return s.Run(ctx, nil, opt)
}

// Design-space exploration types: the subsystem that turns the scenario
// layer into an optimizer — a declarative Space (a base scenario crossed
// with capacitance lattices, preset subsets, timestep values, seed ranges
// and JSON-patchable knobs) explored by an exhaustive grid or an adaptive
// bisection toward a metric target, with Pareto frontiers extracted over
// chosen metric pairs. `reactsim -explore` and reactd's POST /explorations
// drive the same engine.
type (
	// ExploreSpace is a declarative design-space exploration.
	ExploreSpace = explore.Space
	// ExploreStaticAxis is a capacitance lattice of custom static buffers.
	ExploreStaticAxis = explore.StaticAxis
	// ExplorePatchAxis varies one JSON-expressible spec knob.
	ExplorePatchAxis = explore.PatchAxis
	// ExploreTarget is a metric goal ("latency ≤ 0.5", "blocks ≥ 100").
	ExploreTarget = explore.Target
	// ExploreMetricPair selects one Pareto frontier's two objectives.
	ExploreMetricPair = explore.MetricPair
	// ExploreResult is a completed exploration: points, bests, frontiers.
	ExploreResult = explore.Result
	// ExplorePointResult is one lattice point's outcome.
	ExplorePointResult = explore.PointResult
	// ExploreBest is one bisection (or grid scan) outcome.
	ExploreBest = explore.Best
	// ExploreFrontier is one extracted Pareto frontier.
	ExploreFrontier = explore.Frontier
	// ExplorationStatus is a remote exploration's submit/poll view.
	ExplorationStatus = service.ExploreStatus
	// RemoteExploration is a submitted remote exploration's handle
	// (Client.ExploreAsync).
	RemoteExploration = service.RemoteExploration
)

// ParseExploreSpace builds and validates an ExploreSpace from its JSON
// encoding — the same format `reactsim -explore` reads and POST
// /explorations accepts.
func ParseExploreSpace(data []byte) (*ExploreSpace, error) { return explore.ParseSpace(data) }

// Explore runs a design-space exploration locally: every probed point
// simulates over the experiment engine's worker pool (0 = GOMAXPROCS).
// The result is deterministic for any worker count and bit-identical to
// what a reactd serves for the same space and seeds. Explore blocks until
// the exploration finishes; to run it in the background, call it from a
// goroutine and cancel ctx to stop it between batches.
func Explore(ctx context.Context, space *ExploreSpace, workers int) (*ExploreResult, error) {
	return explore.Run(ctx, space, explore.Local(workers))
}

// Simulation-service types: the reactd daemon's building blocks (serve
// scenarios over HTTP with a content-addressed, single-flight result
// cache) and the Go client that talks to one.
type (
	// ServiceServer is the reactd HTTP handler: an async run queue over the
	// experiment engine plus the result cache. Serve it with net/http and
	// shut it down with Close.
	ServiceServer = service.Server
	// ServiceConfig tunes a ServiceServer (worker pool, cache size).
	ServiceConfig = service.Config
	// ServiceMetrics is the GET /metrics report.
	ServiceMetrics = service.Metrics
	// Client talks to a running reactd; create one with Dial.
	Client = service.Client
	// RemoteRun is a submitted run's poll/wait/cancel handle.
	RemoteRun = service.RemoteRun
	// RunRequest submits a run: a registered scenario name or an inline
	// JSON spec, plus optional seed and timestep. Seed 0 means "unset"
	// (the spec's seed applies, defaulting to 1).
	RunRequest = service.RunRequest
	// RunStatus is a run's submit/poll view, including partial results.
	RunStatus = service.RunStatus
	// RunCell is one buffer's slot in a RunStatus.
	RunCell = service.CellStatus
	// RunCellResult is one buffer's completed metrics.
	RunCellResult = service.CellResult
	// ServiceScenarioInfo is one GET /scenarios registry entry.
	ServiceScenarioInfo = service.ScenarioInfo
	// SweepRequest submits a sweep: one spec crossed with a seed list or
	// range, an optional timestep axis, and an optional buffer subset.
	SweepRequest = service.SweepRequest
	// SweepStatus is a sweep's submit/poll view: resolved axes, per-cell
	// results, and (once done) per-(buffer, dt) summary rows.
	SweepStatus = service.SweepStatus
	// SweepCell is one (buffer, dt, seed) cell of a SweepStatus.
	SweepCell = service.SweepCellStatus
	// SweepSummaryRow is one aggregate row of a completed sweep.
	SweepSummaryRow = service.SweepSummary
	// RemoteSweep is a submitted sweep's poll/wait/cancel handle
	// (Client.SweepAsync).
	RemoteSweep = service.RemoteSweep
	// SeedSummary is one cell's across-seed statistics, as computed by
	// AggregateSeeds.
	SeedSummary = scenario.SeedSummary
	// MeanStd is an across-seed mean and population standard deviation.
	MeanStd = scenario.MeanStd
)

// NewService builds a reactd server for embedding: mount it on any
// net/http mux or serve it directly. It fails only on an invalid cluster
// configuration (ServiceConfig.Peers/Self).
func NewService(cfg ServiceConfig) (*ServiceServer, error) { return service.New(cfg) }

// Dial connects to a reactd server ("http://host:port") and verifies it
// responds. Client.Run submits and waits; Client.RunAsync returns a
// RemoteRun handle for polling, partial results and cancellation.
// Client.Sweep and Client.SweepAsync submit seed × dt × buffer sweeps,
// and Client.Explore/ExploreAsync submit design-space explorations; all of
// them share cells with runs and each other through the daemon's
// content-addressed cache. Every request the client issues is bounded by
// a per-request timeout (service.DefaultRequestTimeout unless overridden
// with service.WithRequestTimeout), so a hung daemon fails calls instead
// of pinning them.
func Dial(baseURL string, opts ...service.DialOption) (*Client, error) {
	return service.Dial(baseURL, opts...)
}

// DialContext is Dial bounded by the caller's context: cancel it and the
// liveness probe is abandoned with it.
func DialContext(ctx context.Context, baseURL string, opts ...service.DialOption) (*Client, error) {
	return service.DialContext(ctx, baseURL, opts...)
}

// FingerprintScenario returns the content address of the runs a scenario
// spec produces under the given options: a stable SHA-256 over the
// canonicalized physics (trace, converter, device, workload, buffers,
// timestep, tail cap, seed). Equal fingerprints mean bit-identical
// results; the service deduplicates whole-run submissions on it.
func FingerprintScenario(s *Scenario, opt ScenarioOptions) (string, error) {
	return s.FingerprintRun(opt)
}

// FingerprintScenarioCell returns the content address of buffer i's cell
// of a scenario under the given options — the granularity the service's
// result cache operates at. A cell's address equals the run address of
// the equivalent single-buffer spec, so runs and sweeps that overlap on a
// buffer share the cached simulation.
func FingerprintScenarioCell(s *Scenario, i int, opt ScenarioOptions) (string, error) {
	return s.FingerprintCell(i, opt)
}

// AggregateSeeds summarizes a multi-seed sweep of one cell: per-metric
// across-seed mean and population standard deviation, latency over the
// started runs only. It is the same computation `reactsim -seeds` prints
// and reactd's sweep summaries report.
func AggregateSeeds(results []Result) SeedSummary { return scenario.AggregateSeeds(results) }

// Experiment-engine types: the shared orchestration layer every multi-run
// workload (grids, sweeps, benchmarks, tools) schedules through.
type (
	// Runner is a bounded worker pool with deterministic dispatch, context
	// cancellation, per-job error capture and progress callbacks. The zero
	// value uses GOMAXPROCS workers.
	Runner = runner.Runner
	// RunProgress reports one completed job to Runner.OnProgress.
	RunProgress = runner.Progress
	// ResultGrid is a dense benchmark × trace × buffer result store.
	ResultGrid = runner.Grid
	// GridRowFunc simulates one benchmark × trace row of a result grid,
	// returning results index-parallel to the buffer axis.
	GridRowFunc = runner.BatchCellFunc
)

// NewResultGrid builds an empty dense result grid over the given axes.
func NewResultGrid(benchmarks []string, traces []*Trace, buffers []string) *ResultGrid {
	return runner.NewGrid(benchmarks, traces, buffers)
}

// RunGrid populates a result grid by running row for every benchmark ×
// trace combination over r's worker pool (nil r uses the default pool
// sized to GOMAXPROCS); each row simulates the whole buffer axis.
func RunGrid(ctx context.Context, r *Runner, benchmarks []string, traces []*Trace, buffers []string, row GridRowFunc) (*ResultGrid, error) {
	return runner.RunGridBatched(ctx, r, benchmarks, traces, buffers, row)
}

// Sweep runs fn once per point over r's worker pool and returns the results
// in point order — the primitive for multi-seed runs, capacitance sweeps,
// DT sweeps and any other parameter study.
func Sweep[P, R any](ctx context.Context, r *Runner, points []P, fn func(ctx context.Context, p P) (R, error)) ([]R, error) {
	return runner.Sweep(ctx, r, points, fn)
}

// SweepSeeds returns the n deterministic sweep seeds 1..n.
func SweepSeeds(n int) []uint64 { return runner.Seeds(n) }

// Linspace returns n evenly spaced sweep values from lo to hi inclusive.
func Linspace(lo, hi float64, n int) []float64 { return runner.Linspace(lo, hi, n) }

// Logspace returns n logarithmically spaced sweep values from lo to hi
// inclusive (both positive).
func Logspace(lo, hi float64, n int) []float64 { return runner.Logspace(lo, hi, n) }
