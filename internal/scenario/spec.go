// Package scenario is the declarative layer over the simulation substrate:
// a Spec names a trace, a converter, a device profile, a workload, and a
// set of buffers, and the package materializes and runs the combination
// through the shared experiment engine (internal/runner).
//
// Specs are constructible from Go (including programmatic traces and
// custom buffer constructors) and from JSON (ParseSpec), and a process-wide
// registry ships the paper's full evaluation grid plus the extended
// scenario catalogue — energy attacks, cold starts, multi-day persistence,
// ML inference, packet storms — so new workloads are runnable by name from
// the CLI and regression-tested against golden metrics without touching
// internal/experiments.
package scenario

import (
	"encoding/json"
	"fmt"
	"math"

	"react/internal/buffer"
	"react/internal/capybara"
	"react/internal/ckpt"
	"react/internal/core"
	"react/internal/harvest"
	"react/internal/mcu"
	"react/internal/morphy"
	"react/internal/radio"
	"react/internal/trace"
	"react/internal/workload"
)

// PaperBuffers lists the paper's five evaluated buffers in column order.
var PaperBuffers = []string{"770 µF", "10 mF", "17 mF", "Morphy", "REACT"}

// PresetBuffers is every buffer preset NewPresetBuffer can construct: the
// paper's five plus the related-work extensions.
var PresetBuffers = []string{"770 µF", "10 mF", "17 mF", "Morphy", "REACT", "Capybara", "Dewdrop"}

// PaperBenchmarks lists the paper's four benchmarks in presentation order.
var PaperBenchmarks = []string{"DE", "SC", "RT", "PF"}

// Benchmarks is every workload a WorkloadSpec can build: the paper's four
// plus the scenario extensions (partitioned ML inference, mixed duty).
var Benchmarks = []string{"DE", "SC", "RT", "PF", "ML", "MIX"}

// DEActiveI is the device current while running the DE benchmark. Software
// AES on a low-clocked MSP430-class core draws well under the generic
// active figure; ≈2 mW at 3.3 V keeps the benchmark's consumption below the
// traces' burst power, which is the regime the paper's Table 2 reflects
// (small buffers clip during bursts, large ones capture them).
const DEActiveI = 0.6e-3

// StaticLeak returns the leakage current (at 6.3 V rating) for a static
// buffer of capacitance c: 1 µA per mF, a low-leakage bulk-capacitor
// figure consistent with buffers that must hold charge across long
// recharge gaps.
func StaticLeak(c float64) float64 { return c * 1e-3 }

// Spec is one declarative scenario: everything needed to reproduce a set of
// runs from a seed. The zero values of the optional fields select the
// evaluation defaults, so a minimal spec is just a name, a trace, a
// workload, and a buffer list.
type Spec struct {
	// Name is the registry key and CLI handle: a lowercase kebab-case slug.
	Name string `json:"name"`
	// Title is the one-line human description shown by `reactsim -list`.
	Title string `json:"title,omitempty"`
	// Paper marks the scenarios that make up the paper's evaluation grid.
	Paper bool `json:"paper,omitempty"`
	// Long marks scenarios too heavy for -short test runs (multi-day
	// traces, large grids); the golden and determinism suites skip them
	// under -short.
	Long bool `json:"long,omitempty"`

	Trace     TraceSpec    `json:"trace"`
	Converter string       `json:"converter,omitempty"` // harvest.ByName key; "" = identity replay
	Device    DeviceSpec   `json:"device,omitempty"`
	Workload  WorkloadSpec `json:"workload"`
	Buffers   []BufferSpec `json:"buffers"`

	// DT is the integration timestep in seconds (default 1 ms).
	DT float64 `json:"dt,omitempty"`
	// TailCap bounds the post-trace drain phase (default 600 s).
	TailCap float64 `json:"tail_cap,omitempty"`
	// Seed is the default trace/event seed (default 1); RunOptions.Seed
	// overrides it per run.
	Seed uint64 `json:"seed,omitempty"`
}

// TraceSpec selects the harvested-power input. Exactly one of Gen or
// Loaded must be set: Gen names a deterministic synthetic generator
// (trace.ByName), Loaded carries a programmatic or file-loaded trace and
// is Go-only.
type TraceSpec struct {
	// Gen is the generator name ("rf-cart", "energy-attack", "steady", ...).
	Gen string `json:"gen,omitempty"`
	// Mean, when positive, rescales the built trace to this mean power in
	// watts (for "steady" it is the constant level, default 10 mW).
	Mean float64 `json:"mean,omitempty"`
	// Duration, when positive, clips the built trace to this many seconds
	// (for "steady" it is the length, default 300 s).
	Duration float64 `json:"duration,omitempty"`
	// Loaded bypasses Gen for programmatic specs. The trace is shared, not
	// copied: when Mean or Duration is also set the trace is cloned before
	// modification so concurrent cells never mutate a caller's trace.
	Loaded *trace.Trace `json:"-"`
}

// steadyGen is the parametric constant-power generator, handled here
// rather than in the trace registry because it takes knobs, not a seed.
const steadyGen = "steady"

// steadyKnobs resolves the steady generator's level (default 10 mW) and
// length (default 300 s).
func (ts TraceSpec) steadyKnobs() (mean, dur float64) {
	mean, dur = ts.Mean, ts.Duration
	if mean <= 0 {
		mean = 10e-3
	}
	if dur <= 0 {
		dur = 300
	}
	return mean, dur
}

// Build materializes the trace for a seed. Generated traces are fresh per
// call; Loaded traces are returned as-is unless a knob forces a clone.
func (ts TraceSpec) Build(seed uint64) (*trace.Trace, error) {
	tr := ts.Loaded
	switch {
	case tr != nil:
		if ts.Mean > 0 || ts.Duration > 0 {
			clone := *tr
			clone.Power = append([]float64(nil), tr.Power...)
			tr = &clone
		}
	case ts.Gen == steadyGen:
		mean, dur := ts.steadyKnobs()
		return trace.Steady(fmt.Sprintf("Steady %.3g mW", mean*1e3), mean, dur), nil
	default:
		var err error
		if tr, err = trace.ByName(ts.Gen, seed); err != nil {
			return nil, err
		}
	}
	if ts.Duration > 0 {
		tr.Clip(ts.Duration)
	}
	if ts.Mean > 0 {
		tr.Scale(ts.Mean)
	}
	return tr, nil
}

// validate checks the trace selection without materializing it.
func (ts TraceSpec) validate() error {
	if ts.Loaded != nil {
		if ts.Gen != "" {
			return fmt.Errorf("trace: both Gen %q and Loaded set", ts.Gen)
		}
		return nil
	}
	if ts.Gen == steadyGen || trace.KnownGenerator(ts.Gen) {
		return nil
	}
	return fmt.Errorf("trace: unknown generator %q", ts.Gen)
}

// DeviceSpec selects the computational platform: a named profile plus
// field-level overrides (zero means "keep the profile's value") and an
// optional checkpoint scheme.
type DeviceSpec struct {
	// Profile names the base envelope (mcu.NamedProfile); mcu.ProfileNames
	// enumerates the registry.
	Profile   string  `json:"profile,omitempty"`
	VEnable   float64 `json:"v_enable,omitempty"`
	VBrownout float64 `json:"v_brownout,omitempty"`
	BootTime  float64 `json:"boot_time,omitempty"`
	ActiveI   float64 `json:"active_i,omitempty"`
	SleepI    float64 `json:"sleep_i,omitempty"`
	// Checkpoint selects a backup/restore scheme (ckpt.Names enumerates
	// them). Nil, and the canonical form of {"scheme": "none"}, mean the
	// legacy flat-boot device: every brownout loses volatile state.
	Checkpoint *ckpt.Config `json:"checkpoint,omitempty"`
}

// Build resolves the device profile.
func (ds DeviceSpec) Build() (mcu.Profile, error) {
	prof, err := mcu.NamedProfile(ds.Profile)
	if err != nil {
		return mcu.Profile{}, err
	}
	if ds.VEnable > 0 {
		prof.VEnable = ds.VEnable
	}
	if ds.VBrownout > 0 {
		prof.VBrownout = ds.VBrownout
	}
	if ds.BootTime > 0 {
		prof.BootTime = ds.BootTime
	}
	if ds.ActiveI > 0 {
		prof.ActiveI = ds.ActiveI
	}
	if ds.SleepI > 0 {
		prof.SleepI = ds.SleepI
	}
	return prof, nil
}

// BuildScheme resolves the checkpoint block into a scheme for
// mcu.Device.Scheme. Nil means the flat-boot default (as does an explicit
// "none" block — the two are one fingerprint, see canonicalCheckpoint).
func (ds DeviceSpec) BuildScheme() (ckpt.Scheme, error) {
	if ds.Checkpoint == nil {
		return nil, nil
	}
	return ckpt.Build(*ds.Checkpoint)
}

// validate checks the device selection, including the checkpoint block.
func (ds DeviceSpec) validate() error {
	if _, err := ds.Build(); err != nil {
		return err
	}
	if ds.Checkpoint != nil {
		if _, err := ckpt.Resolve(*ds.Checkpoint); err != nil {
			return err
		}
	}
	return nil
}

// WorkloadSpec selects the benchmark program and its knobs (zero values
// mean the benchmark's defaults).
type WorkloadSpec struct {
	// Bench is the benchmark name: DE, SC, RT, PF, ML, or MIX.
	Bench string `json:"bench"`
	// ActiveI overrides the DE encryption current.
	ActiveI float64 `json:"active_i,omitempty"`
	// Period overrides the SC deadline spacing or the MIX sensing cadence.
	Period float64 `json:"period,omitempty"`
	// Interarrival overrides the PF mean packet interarrival in seconds; 0
	// selects the trace-length heuristic the paper grid uses.
	Interarrival float64 `json:"interarrival,omitempty"`
	// Batch overrides the MIX transmit batch size.
	Batch int `json:"batch,omitempty"`
	// Segments overrides the ML partition count per inference.
	Segments int `json:"segments,omitempty"`
}

// TraceSeed derives a deterministic event seed from a trace name so
// arrival schedules are repeatable per trace but uncorrelated across
// traces.
func TraceSeed(name string, seed uint64) uint64 {
	h := seed*0x100000001b3 + 14695981039346656037
	for _, c := range name {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// pfInterarrival is the paper grid's packet-density heuristic: denser for
// the short RF traces, sparser for the long solar walks, keeping total
// arrivals in the range the paper reports.
func pfInterarrival(tr *trace.Trace) float64 {
	if tr.Duration() <= 1000 {
		return 6
	}
	return 12
}

// Build constructs a fresh workload instance for a trace, seed and device
// profile.
func (ws WorkloadSpec) Build(tr *trace.Trace, seed uint64, prof mcu.Profile) (mcu.Workload, error) {
	switch ws.Bench {
	case "DE":
		activeI := ws.ActiveI
		if activeI <= 0 {
			activeI = DEActiveI
		}
		return workload.NewDataEncryption(activeI), nil
	case "SC":
		w := workload.NewSenseCompute(prof.SleepI)
		if ws.Period > 0 {
			w.Period = ws.Period
		}
		return w, nil
	case "RT":
		return workload.NewRadioTransmit(prof.SleepI), nil
	case "PF":
		ia := ws.Interarrival
		if ia <= 0 {
			ia = pfInterarrival(tr)
		}
		arrivals := radio.Arrivals(TraceSeed(tr.Name, seed), tr.Duration()+120, ia)
		return workload.NewPacketForward(prof.SleepI, arrivals), nil
	case "ML":
		w := workload.NewMLInference(prof.SleepI)
		if ws.Segments > 0 {
			w.Segments = ws.Segments
		}
		return w, nil
	case "MIX":
		w := workload.NewMixedDuty(prof.SleepI)
		if ws.Period > 0 {
			w.Period = ws.Period
		}
		if ws.Batch > 0 {
			w.BatchN = ws.Batch
		}
		return w, nil
	}
	return nil, fmt.Errorf("workload: unknown benchmark %q (want one of %v)", ws.Bench, Benchmarks)
}

// validate checks the workload selection.
func (ws WorkloadSpec) validate() error {
	for _, b := range Benchmarks {
		if ws.Bench == b {
			return nil
		}
	}
	return fmt.Errorf("workload: unknown benchmark %q (want one of %v)", ws.Bench, Benchmarks)
}

// StaticSpec describes a custom fixed-size buffer capacitor, for scenarios
// that need sizes or ageing the presets don't cover.
type StaticSpec struct {
	// C is the capacitance in farads (required).
	C float64 `json:"c"`
	// VMax is the overvoltage-protection clip (default 3.6 V).
	VMax float64 `json:"v_max,omitempty"`
	// LeakI is the leakage current at the rated voltage (default the
	// 1 µA/mF StaticLeak figure).
	LeakI float64 `json:"leak_i,omitempty"`
	// VRated is the leakage-specification voltage (default 6.3 V).
	VRated float64 `json:"v_rated,omitempty"`
}

// validate checks the static parameters — the one implementation shared
// by BufferSpec.validate and BufferSpec.Build, so the two can never
// drift. NaN fails every comparison, so a plain `<= 0` check would wave a
// NaN capacitance straight through to the capacitor model; every field is
// therefore demanded finite by name, and C positive as well (the other
// fields keep "zero or negative selects the default").
func (st *StaticSpec) validate(label string) error {
	if math.IsNaN(st.C) || math.IsInf(st.C, 0) || st.C <= 0 {
		return fmt.Errorf("buffer %q: static c must be a positive, finite capacitance", label)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"v_max", st.VMax}, {"leak_i", st.LeakI}, {"v_rated", st.VRated}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("buffer %q: static %s must be finite (zero selects the default)", label, f.name)
		}
	}
	return nil
}

// withDefaults returns st with every zero-or-negative optional field
// replaced by its default.
func (st StaticSpec) withDefaults() StaticSpec {
	if st.VMax <= 0 {
		st.VMax = 3.6
	}
	if st.LeakI <= 0 {
		st.LeakI = StaticLeak(st.C)
	}
	if st.VRated <= 0 {
		st.VRated = 6.3
	}
	return st
}

// build constructs the static buffer st describes, its defaults resolved.
func (st StaticSpec) build(name string) buffer.Buffer {
	st = st.withDefaults()
	return buffer.NewStatic(buffer.StaticConfig{
		Name: name, C: st.C, VMax: st.VMax, LeakI: st.LeakI, VRated: st.VRated,
	})
}

// ReactSpec describes a REACT buffer that departs from the "REACT" preset,
// for the §5.1 overhead characterization. The buffer still reports itself
// as "REACT" (sim.Result.Buffer); the spec's label names its cell in runs,
// goldens and tables.
type ReactSpec struct {
	// NoPoll zeroes the 10 Hz software poll's share of the device's
	// compute (core.Config.SoftwareOverhead), the baseline §5.1 measures
	// the poll against.
	NoPoll bool `json:"no_poll,omitempty"`
}

// Config returns the REACT configuration the block builds: the paper's
// default bank layout with the block's changes applied.
func (rs ReactSpec) Config() core.Config {
	cfg := core.DefaultConfig()
	if rs.NoPoll {
		cfg.SoftwareOverhead = 0
	}
	return cfg
}

// BufferSpec selects one energy buffer of a scenario. Exactly one of
// Preset, Static, React, or New must be set.
type BufferSpec struct {
	// Preset names one of the stock designs (PresetBuffers).
	Preset string `json:"preset,omitempty"`
	// Static builds a custom fixed-size capacitor; requires Label.
	Static *StaticSpec `json:"static,omitempty"`
	// React builds a REACT buffer with a changed configuration; requires
	// Label.
	React *ReactSpec `json:"react,omitempty"`
	// Label overrides the display name (required for Static, React and
	// New).
	Label string `json:"label,omitempty"`
	// New is a Go-only custom constructor; requires Label. It must return
	// a fresh buffer per call.
	New func() buffer.Buffer `json:"-"`
}

// DisplayName is the buffer's name in results, golden files and tables.
func (bs BufferSpec) DisplayName() string {
	if bs.Label != "" {
		return bs.Label
	}
	return bs.Preset
}

// Build constructs a fresh buffer instance.
func (bs BufferSpec) Build() (buffer.Buffer, error) {
	switch {
	case bs.New != nil:
		return bs.New(), nil
	case bs.Static != nil:
		if err := bs.Static.validate(bs.DisplayName()); err != nil {
			return nil, err
		}
		return bs.Static.build(bs.DisplayName()), nil
	case bs.React != nil:
		return core.New(bs.React.Config()), nil
	default:
		return NewPresetBuffer(bs.Preset)
	}
}

// validate checks the buffer selection without building it.
func (bs BufferSpec) validate() error {
	set := 0
	if bs.Preset != "" {
		set++
	}
	if bs.Static != nil {
		set++
	}
	if bs.React != nil {
		set++
	}
	if bs.New != nil {
		set++
	}
	if set != 1 {
		return fmt.Errorf("buffer %q: exactly one of preset, static, react, or a constructor is required", bs.DisplayName())
	}
	if bs.Preset != "" {
		if _, err := NewPresetBuffer(bs.Preset); err != nil {
			return err
		}
		return nil
	}
	if bs.Label == "" {
		return fmt.Errorf("buffer: custom buffers need a label")
	}
	if bs.Static != nil {
		return bs.Static.validate(bs.Label)
	}
	return nil
}

// NewPresetBuffer constructs a fresh instance of one of the stock buffer
// designs: the paper's five evaluated buffers plus the related-work
// extensions "Capybara" and "Dewdrop".
func NewPresetBuffer(name string) (buffer.Buffer, error) {
	switch name {
	case "770 µF":
		return StaticSpec{C: 770e-6}.build(name), nil
	case "10 mF":
		return StaticSpec{C: 10e-3}.build(name), nil
	case "17 mF":
		return StaticSpec{C: 17e-3}.build(name), nil
	case "Morphy":
		return morphy.New(morphy.DefaultConfig()), nil
	case "REACT":
		return core.New(core.DefaultConfig()), nil
	case "Capybara":
		return capybara.New(capybara.DefaultConfig()), nil
	case "Dewdrop":
		// A static capacitor with the static defaults, task-matched to the
		// atomic radio transmission with the workloads' longevity margin.
		st := StaticSpec{C: 2.2e-3}.withDefaults()
		return buffer.NewDewdrop(buffer.DewdropConfig{
			C: st.C, VMax: st.VMax, VMin: 1.8,
			LeakI: st.LeakI, VRated: st.VRated,
			TaskEnergy: radio.DefaultProfile().TX.Energy(3.3) * workload.LongevityMargin,
		}), nil
	}
	return nil, fmt.Errorf("buffer: unknown preset %q (want one of %v)", name, PresetBuffers)
}

// Presets wraps buffer names as preset BufferSpecs — the common case.
func Presets(names ...string) []BufferSpec {
	specs := make([]BufferSpec, len(names))
	for i, n := range names {
		specs[i] = BufferSpec{Preset: n}
	}
	return specs
}

// Validate checks that the spec is well-formed and buildable: known trace
// generator, benchmark, converter and device profile, and a non-empty
// buffer set with unique display names.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	for _, c := range s.Name {
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-' {
			continue
		}
		return fmt.Errorf("scenario %q: name must be a lowercase kebab-case slug", s.Name)
	}
	if err := s.Trace.validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if _, err := harvest.ByName(s.Converter); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if err := s.Device.validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if err := s.Workload.validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if len(s.Buffers) == 0 {
		return fmt.Errorf("scenario %q: at least one buffer is required", s.Name)
	}
	seen := map[string]bool{}
	for _, bs := range s.Buffers {
		if err := bs.validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		name := bs.DisplayName()
		if seen[name] {
			return fmt.Errorf("scenario %q: duplicate buffer %q", s.Name, name)
		}
		seen[name] = true
	}
	// NaN fails every comparison, so a plain `< 0` check would wave a
	// NaN timestep straight through to sim.Run; demand finite-and-non-
	// negative explicitly.
	if !isFiniteNonNegative(s.DT) || !isFiniteNonNegative(s.TailCap) {
		return fmt.Errorf("scenario %q: dt and tail_cap must be finite and non-negative (zero selects the default)", s.Name)
	}
	return nil
}

// isFiniteNonNegative reports whether x is a usable timing parameter: a
// real, non-negative number. Written so NaN (which fails all comparisons)
// lands on the rejecting side.
func isFiniteNonNegative(x float64) bool {
	return x >= 0 && !math.IsInf(x, 1)
}

// Clone returns a deep-enough copy: mutating the clone's slices and specs
// never affects the original (Loaded traces stay shared and are treated as
// immutable).
func (s *Spec) Clone() *Spec {
	c := *s
	c.Buffers = append([]BufferSpec(nil), s.Buffers...)
	for i := range c.Buffers {
		if st := c.Buffers[i].Static; st != nil {
			cp := *st
			c.Buffers[i].Static = &cp
		}
		if rs := c.Buffers[i].React; rs != nil {
			cp := *rs
			c.Buffers[i].React = &cp
		}
	}
	if ck := s.Device.Checkpoint; ck != nil {
		cp := *ck
		c.Device.Checkpoint = &cp
	}
	return &c
}

// ParseSpec builds and validates a Spec from its JSON encoding.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// JSON renders the spec as indented JSON. Go-only fields (loaded traces,
// custom constructors) are omitted; such specs round-trip incompletely and
// JSON output is primarily for the registry's declarative scenarios.
func (s *Spec) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
