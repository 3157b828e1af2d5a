package scenario_test

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"react/internal/mcu"
	"react/internal/scenario"
	"react/internal/trace"
)

func TestRegistryShipsCatalogueAndPaperGrid(t *testing.T) {
	extended := scenario.Extended()
	if len(extended) < 8 {
		t.Fatalf("registry ships %d extended scenarios, want >= 8", len(extended))
	}
	paper := 0
	for _, s := range scenario.All() {
		if s.Paper {
			paper++
		}
	}
	if want := len(scenario.PaperBenchmarks) * 5; paper != want {
		t.Errorf("registry ships %d paper scenarios, want %d", paper, want)
	}
	// Every name resolves and every registered spec validates.
	for _, name := range scenario.Names() {
		s, ok := scenario.Lookup(name)
		if !ok {
			t.Fatalf("Names lists %q but Lookup misses it", name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("registered scenario %q no longer validates: %v", name, err)
		}
	}
}

func TestPaperScenariosCoverTheEvaluationGrid(t *testing.T) {
	for _, bench := range scenario.PaperBenchmarks {
		for _, tr := range trace.Evaluation(1) {
			name := scenario.PaperName(bench, tr.Name)
			s, ok := scenario.Lookup(name)
			if !ok {
				t.Fatalf("paper cell %s/%s has no scenario %q", bench, tr.Name, name)
			}
			// The spec's generator must rebuild exactly this trace.
			built, err := s.Trace.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			if built.Name != tr.Name {
				t.Errorf("%s: generator builds %q, want %q", name, built.Name, tr.Name)
			}
			if len(s.Buffers) != len(scenario.PaperBuffers) {
				t.Errorf("%s: %d buffers, want the paper's %d", name, len(s.Buffers), len(scenario.PaperBuffers))
			}
		}
	}
}

// TestPresetBufferFactory: every preset builds a fresh buffer whose name
// contains its preset name (some models append their sizing) and that has
// a positive capacitance; an unknown name is an error.
func TestPresetBufferFactory(t *testing.T) {
	for _, name := range scenario.PresetBuffers {
		b, err := scenario.NewPresetBuffer(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(b.Name(), name) {
			t.Errorf("buffer %q reports name %q", name, b.Name())
		}
		if b.Capacitance() <= 0 {
			t.Errorf("buffer %q has no capacitance", name)
		}
	}
	if _, err := scenario.NewPresetBuffer("1 F"); err == nil {
		t.Error("an unknown preset must not build")
	}
}

// TestWorkloadSpecBuildNames: every paper benchmark builds a workload
// that reports its benchmark name; an unknown name is an error.
func TestWorkloadSpecBuildNames(t *testing.T) {
	tr := trace.RFCart(1)
	for _, bench := range scenario.PaperBenchmarks {
		wl, err := scenario.WorkloadSpec{Bench: bench}.Build(tr, 1, mcu.DefaultProfile())
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		if wl.Name() != bench {
			t.Errorf("workload %q reports name %q", bench, wl.Name())
		}
	}
	if _, err := (scenario.WorkloadSpec{Bench: "XX"}).Build(tr, 1, mcu.DefaultProfile()); err == nil {
		t.Error("an unknown benchmark must not build")
	}
}

func TestLookupReturnsIndependentClones(t *testing.T) {
	a, _ := scenario.Lookup("energy-attack")
	a.Title = "mutated"
	a.Buffers[0] = scenario.BufferSpec{Preset: "REACT"}
	b, _ := scenario.Lookup("energy-attack")
	if b.Title == "mutated" || b.Buffers[0].Preset == "REACT" {
		t.Error("mutating a looked-up spec must not corrupt the registry")
	}
}

func TestRegisterRejectsDuplicatesAndInvalidSpecs(t *testing.T) {
	if err := scenario.Register(&scenario.Spec{
		Name:     "energy-attack",
		Trace:    scenario.TraceSpec{Gen: "rf-cart"},
		Workload: scenario.WorkloadSpec{Bench: "DE"},
		Buffers:  scenario.Presets("REACT"),
	}); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate registration must fail, got %v", err)
	}
	bad := []*scenario.Spec{
		{Name: "", Trace: scenario.TraceSpec{Gen: "rf-cart"}, Workload: scenario.WorkloadSpec{Bench: "DE"}, Buffers: scenario.Presets("REACT")},
		{Name: "Bad Name", Trace: scenario.TraceSpec{Gen: "rf-cart"}, Workload: scenario.WorkloadSpec{Bench: "DE"}, Buffers: scenario.Presets("REACT")},
		{Name: "no-trace", Trace: scenario.TraceSpec{Gen: "warp-core"}, Workload: scenario.WorkloadSpec{Bench: "DE"}, Buffers: scenario.Presets("REACT")},
		{Name: "no-bench", Trace: scenario.TraceSpec{Gen: "rf-cart"}, Workload: scenario.WorkloadSpec{Bench: "XX"}, Buffers: scenario.Presets("REACT")},
		{Name: "no-buffers", Trace: scenario.TraceSpec{Gen: "rf-cart"}, Workload: scenario.WorkloadSpec{Bench: "DE"}},
		{Name: "dup-buffers", Trace: scenario.TraceSpec{Gen: "rf-cart"}, Workload: scenario.WorkloadSpec{Bench: "DE"}, Buffers: scenario.Presets("REACT", "REACT")},
		{Name: "bad-converter", Trace: scenario.TraceSpec{Gen: "rf-cart"}, Converter: "perpetuum", Workload: scenario.WorkloadSpec{Bench: "DE"}, Buffers: scenario.Presets("REACT")},
		{Name: "bad-device", Trace: scenario.TraceSpec{Gen: "rf-cart"}, Device: scenario.DeviceSpec{Profile: "quantum"}, Workload: scenario.WorkloadSpec{Bench: "DE"}, Buffers: scenario.Presets("REACT")},
		{Name: "unlabeled-static", Trace: scenario.TraceSpec{Gen: "rf-cart"}, Workload: scenario.WorkloadSpec{Bench: "DE"}, Buffers: []scenario.BufferSpec{{Static: &scenario.StaticSpec{C: 1e-3}}}},
	}
	for _, s := range bad {
		if err := scenario.Register(s); err == nil {
			t.Errorf("spec %q must fail validation", s.Name)
		}
	}
}

// TestStaticSpecRejectsNonFiniteFields pins the NaN/Inf guard on custom
// static buffers: NaN passes any `<= 0` comparison, so every StaticSpec
// field must be demanded finite by name — and the same check must hold on
// both the validation path (Spec.Validate) and the construction path
// (BufferSpec.Build), which share one implementation.
func TestStaticSpecRejectsNonFiniteFields(t *testing.T) {
	mk := func(mutate func(*scenario.StaticSpec)) scenario.BufferSpec {
		st := &scenario.StaticSpec{C: 1e-3}
		mutate(st)
		return scenario.BufferSpec{Label: "custom", Static: st}
	}
	cases := map[string]scenario.BufferSpec{
		"NaN c":        mk(func(st *scenario.StaticSpec) { st.C = math.NaN() }),
		"+Inf c":       mk(func(st *scenario.StaticSpec) { st.C = math.Inf(1) }),
		"zero c":       mk(func(st *scenario.StaticSpec) { st.C = 0 }),
		"negative c":   mk(func(st *scenario.StaticSpec) { st.C = -1e-3 }),
		"NaN v_max":    mk(func(st *scenario.StaticSpec) { st.VMax = math.NaN() }),
		"Inf v_max":    mk(func(st *scenario.StaticSpec) { st.VMax = math.Inf(1) }),
		"NaN leak_i":   mk(func(st *scenario.StaticSpec) { st.LeakI = math.NaN() }),
		"-Inf leak_i":  mk(func(st *scenario.StaticSpec) { st.LeakI = math.Inf(-1) }),
		"NaN v_rated":  mk(func(st *scenario.StaticSpec) { st.VRated = math.NaN() }),
		"+Inf v_rated": mk(func(st *scenario.StaticSpec) { st.VRated = math.Inf(1) }),
	}
	for label, bs := range cases {
		spec := &scenario.Spec{
			Name:     "static-guard",
			Trace:    scenario.TraceSpec{Gen: "steady", Duration: 10},
			Workload: scenario.WorkloadSpec{Bench: "DE"},
			Buffers:  []scenario.BufferSpec{bs},
		}
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate must reject it", label)
		} else if !strings.Contains(err.Error(), "static") {
			t.Errorf("%s: error does not name the static field: %v", label, err)
		}
		if _, err := bs.Build(); err == nil {
			t.Errorf("%s: Build must reject it", label)
		}
	}
	// The well-formed defaults still build.
	good := scenario.BufferSpec{Label: "ok", Static: &scenario.StaticSpec{C: 1e-3}}
	if _, err := good.Build(); err != nil {
		t.Fatalf("defaulted static buffer must build: %v", err)
	}
}

// TestReactBlock: a react block is a custom buffer (label required, no
// other kind beside it), builds REACT with the poll's overhead removed
// when no_poll is set, and is deep-copied by Clone.
func TestReactBlock(t *testing.T) {
	spec := func(bs scenario.BufferSpec) *scenario.Spec {
		return &scenario.Spec{
			Name:     "react-block",
			Trace:    scenario.TraceSpec{Gen: "steady", Duration: 10},
			Workload: scenario.WorkloadSpec{Bench: "DE"},
			Buffers:  []scenario.BufferSpec{bs},
		}
	}
	for label, bs := range map[string]scenario.BufferSpec{
		"no label":         {React: &scenario.ReactSpec{NoPoll: true}},
		"react and preset": {Label: "r", Preset: "REACT", React: &scenario.ReactSpec{}},
		"react and static": {Label: "r", Static: &scenario.StaticSpec{C: 1e-3}, React: &scenario.ReactSpec{}},
	} {
		if err := spec(bs).Validate(); err == nil {
			t.Errorf("%s: Validate must reject it", label)
		}
	}

	if cfg := (scenario.ReactSpec{NoPoll: true}).Config(); cfg.SoftwareOverhead != 0 {
		t.Errorf("no_poll config keeps a %v software overhead", cfg.SoftwareOverhead)
	}
	if cfg := (scenario.ReactSpec{}).Config(); cfg.SoftwareOverhead <= 0 {
		t.Errorf("the default block must keep the poll's overhead, got %v", cfg.SoftwareOverhead)
	}
	s := spec(scenario.BufferSpec{Label: "REACT no poll", React: &scenario.ReactSpec{NoPoll: true}})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	c.Buffers[0].React.NoPoll = false
	if !s.Buffers[0].React.NoPoll {
		t.Error("Clone shares the react block with the original")
	}
	withPoll, err := spec(scenario.BufferSpec{Preset: "REACT"}).Cell(0, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	noPoll, err := s.Cell(0, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if noPoll.Metrics["blocks"] <= withPoll.Metrics["blocks"] {
		t.Errorf("without the poll DE should finish more blocks: %v vs %v", noPoll.Metrics["blocks"], withPoll.Metrics["blocks"])
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	for _, s := range scenario.Extended() {
		data, err := s.JSON()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		back, err := scenario.ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Errorf("%s: JSON round trip changed the spec:\n%s", s.Name, data)
		}
	}
}

func TestParseSpecRejectsMalformedJSON(t *testing.T) {
	if _, err := scenario.ParseSpec([]byte(`{"name":`)); err == nil {
		t.Error("truncated JSON must error")
	}
	if _, err := scenario.ParseSpec([]byte(`{"name":"x!","trace":{"gen":"rf-cart"},"workload":{"bench":"DE"},"buffers":[{"preset":"REACT"}]}`)); err == nil {
		t.Error("invalid slug must error")
	}
}

func TestCellNamedUnknownBufferErrors(t *testing.T) {
	s, _ := scenario.Lookup("energy-attack")
	if _, err := s.CellNamed("1 F", scenario.RunOptions{}); err == nil {
		t.Error("unknown buffer display name must error")
	}
}

func TestTraceSpecLoadedIsNotMutatedByKnobs(t *testing.T) {
	tr := trace.Steady("shared", 2e-3, 100)
	ts := scenario.TraceSpec{Loaded: tr, Mean: 4e-3, Duration: 50}
	built, err := ts.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if built == tr {
		t.Fatal("knobs on a loaded trace must clone before modifying")
	}
	if got := tr.Stats(); math.Abs(got.Mean-2e-3) > 1e-12 || got.Duration != 100 {
		t.Errorf("shared trace was mutated: %+v", got)
	}
	if got := built.Stats(); got.Duration != 50 || got.Mean < 3.9e-3 {
		t.Errorf("knobs not applied to the clone: %+v", got)
	}
	// Without knobs the loaded trace is shared as-is.
	same, err := scenario.TraceSpec{Loaded: tr}.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if same != tr {
		t.Error("knobless loaded traces must pass through unchanged")
	}
}

func TestRunSeedPrecedence(t *testing.T) {
	s := &scenario.Spec{
		Name:     "seed-check",
		Seed:     5,
		Trace:    scenario.TraceSpec{Gen: "steady", Duration: 10},
		Workload: scenario.WorkloadSpec{Bench: "DE"},
		Buffers:  scenario.Presets("770 µF"),
	}
	specSeed, err := s.Run(context.Background(), nil, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if specSeed.Seed != 5 {
		t.Errorf("run used seed %d, want the spec's 5", specSeed.Seed)
	}
	optSeed, err := s.Run(context.Background(), nil, scenario.RunOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if optSeed.Seed != 9 {
		t.Errorf("run used seed %d, want the override 9", optSeed.Seed)
	}
}

// TestCustomConstructorBuffer checks the Go-only BufferSpec.New hook and
// that run results key by the custom label.
func TestCustomConstructorBuffer(t *testing.T) {
	s, _ := scenario.Lookup("tiny-cap-degraded")
	run, err := s.Run(context.Background(), nil, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, ok := run.Result("330 µF aged")
	if !ok {
		t.Fatal("custom static buffer missing from results")
	}
	if res.Buffer != "330 µF aged" {
		t.Errorf("result buffer name %q, want the label", res.Buffer)
	}
}

// TestSpecJSONIsStable pins the wire shape of a representative spec so
// docs and external tooling don't drift silently.
func TestSpecJSONIsStable(t *testing.T) {
	s, _ := scenario.Lookup("dense-packet-storm")
	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"name", "title", "trace", "workload", "buffers"} {
		if _, ok := m[key]; !ok {
			t.Errorf("spec JSON lost key %q:\n%s", key, data)
		}
	}
}
