package scenario_test

import (
	"strings"
	"testing"

	"react/internal/buffer"
	"react/internal/scenario"
	"react/internal/trace"
)

func fpSpec() *scenario.Spec {
	return &scenario.Spec{
		Name:     "fp-base",
		Trace:    scenario.TraceSpec{Gen: "rf-cart"},
		Workload: scenario.WorkloadSpec{Bench: "DE"},
		Buffers:  scenario.Presets("770 µF", "REACT"),
	}
}

func mustFP(t *testing.T, s *scenario.Spec, opt scenario.RunOptions) string {
	t.Helper()
	fp, err := s.FingerprintRun(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(fp, scenario.FingerprintPrefix) {
		t.Fatalf("fingerprint %q missing the %q prefix", fp, scenario.FingerprintPrefix)
	}
	return fp
}

func TestFingerprintEqualSpecsHashEqual(t *testing.T) {
	a := mustFP(t, fpSpec(), scenario.RunOptions{})
	b := mustFP(t, fpSpec(), scenario.RunOptions{})
	if a != b {
		t.Errorf("equal specs hash differently: %s vs %s", a, b)
	}
	// Presentation metadata is not part of the run's identity.
	renamed := fpSpec()
	renamed.Name = "fp-other"
	renamed.Title = "a different catalogue entry"
	renamed.Long = true
	if got := mustFP(t, renamed, scenario.RunOptions{}); got != a {
		t.Error("metadata-only differences must not change the fingerprint")
	}
}

func TestFingerprintResolvesDefaults(t *testing.T) {
	base := mustFP(t, fpSpec(), scenario.RunOptions{})
	spelled := fpSpec()
	spelled.Seed = 1
	spelled.DT = 1e-3
	spelled.TailCap = 600
	if got := mustFP(t, spelled, scenario.RunOptions{}); got != base {
		t.Error("explicitly spelled-out defaults must hash like the defaulted spec")
	}
	// An option override and the equivalent spec field share an address.
	viaOpt := mustFP(t, fpSpec(), scenario.RunOptions{Seed: 3, DT: 2e-3})
	inSpec := fpSpec()
	inSpec.Seed = 3
	inSpec.DT = 2e-3
	if got := mustFP(t, inSpec, scenario.RunOptions{}); got != viaOpt {
		t.Error("RunOptions overrides must hash like the equivalent spec fields")
	}
}

func TestFingerprintSeparatesEveryPhysicsField(t *testing.T) {
	base := mustFP(t, fpSpec(), scenario.RunOptions{})
	seen := map[string]string{"base": base}
	variants := map[string]func(s *scenario.Spec, opt *scenario.RunOptions){
		"trace gen":      func(s *scenario.Spec, _ *scenario.RunOptions) { s.Trace.Gen = "rf-mobile" },
		"trace mean":     func(s *scenario.Spec, _ *scenario.RunOptions) { s.Trace.Mean = 5e-3 },
		"trace duration": func(s *scenario.Spec, _ *scenario.RunOptions) { s.Trace.Duration = 100 },
		"converter":      func(s *scenario.Spec, _ *scenario.RunOptions) { s.Converter = "rf-rectifier" },
		"device profile": func(s *scenario.Spec, _ *scenario.RunOptions) { s.Device.Profile = "degraded" },
		"device active":  func(s *scenario.Spec, _ *scenario.RunOptions) { s.Device.ActiveI = 2e-3 },
		"bench":          func(s *scenario.Spec, _ *scenario.RunOptions) { s.Workload.Bench = "SC" },
		"workload knob":  func(s *scenario.Spec, _ *scenario.RunOptions) { s.Workload.Period = 9 },
		"buffer set":     func(s *scenario.Spec, _ *scenario.RunOptions) { s.Buffers = scenario.Presets("REACT") },
		"buffer order":   func(s *scenario.Spec, _ *scenario.RunOptions) { s.Buffers = scenario.Presets("REACT", "770 µF") },
		"static buffer": func(s *scenario.Spec, _ *scenario.RunOptions) {
			s.Buffers = append(s.Buffers, scenario.BufferSpec{Label: "1 mF", Static: &scenario.StaticSpec{C: 1e-3}})
		},
		"react block": func(s *scenario.Spec, _ *scenario.RunOptions) {
			s.Buffers = append(s.Buffers, scenario.BufferSpec{Label: "R", React: &scenario.ReactSpec{}})
		},
		"react no_poll": func(s *scenario.Spec, _ *scenario.RunOptions) {
			s.Buffers = append(s.Buffers, scenario.BufferSpec{Label: "R", React: &scenario.ReactSpec{NoPoll: true}})
		},
		"dt":       func(s *scenario.Spec, _ *scenario.RunOptions) { s.DT = 5e-3 },
		"tail cap": func(s *scenario.Spec, _ *scenario.RunOptions) { s.TailCap = 120 },
		"seed":     func(s *scenario.Spec, _ *scenario.RunOptions) { s.Seed = 2 },
		"opt seed": func(_ *scenario.Spec, o *scenario.RunOptions) { o.Seed = 4 },
		"opt dt":   func(_ *scenario.Spec, o *scenario.RunOptions) { o.DT = 4e-3 },
		"record":   func(_ *scenario.Spec, o *scenario.RunOptions) { o.RecordDT = 0.5 },
	}
	for label, mutate := range variants {
		s, opt := fpSpec(), scenario.RunOptions{}
		mutate(s, &opt)
		fp := mustFP(t, s, opt)
		for prev, prevFP := range seen {
			if fp == prevFP {
				t.Errorf("%q collides with %q: %s", label, prev, fp)
			}
		}
		seen[label] = fp
	}
}

// TestFingerprintResolvesSpecLayerDefaults pins the canonicalization of
// the defaults the spec layer itself applies: a defaulted steady trace or
// static buffer and its spelled-out equivalent run identical physics and
// must share one address.
func TestFingerprintResolvesSpecLayerDefaults(t *testing.T) {
	steady := func(mean, dur float64) *scenario.Spec {
		s := fpSpec()
		s.Trace = scenario.TraceSpec{Gen: "steady", Mean: mean, Duration: dur}
		return s
	}
	if a, b := mustFP(t, steady(0, 0), scenario.RunOptions{}), mustFP(t, steady(10e-3, 300), scenario.RunOptions{}); a != b {
		t.Error("the steady generator's spelled-out defaults must hash like the defaulted form")
	}
	if a, b := mustFP(t, steady(0, 0), scenario.RunOptions{}), mustFP(t, steady(5e-3, 300), scenario.RunOptions{}); a == b {
		t.Error("a non-default steady mean must change the address")
	}

	static := func(st scenario.StaticSpec) *scenario.Spec {
		s := fpSpec()
		s.Buffers = []scenario.BufferSpec{{Label: "custom", Static: &st}}
		return s
	}
	bare := mustFP(t, static(scenario.StaticSpec{C: 2e-3}), scenario.RunOptions{})
	spelled := mustFP(t, static(scenario.StaticSpec{
		C: 2e-3, VMax: 3.6, LeakI: scenario.StaticLeak(2e-3), VRated: 6.3,
	}), scenario.RunOptions{})
	if bare != spelled {
		t.Error("a static buffer's spelled-out defaults must hash like the defaulted form")
	}
	if got := mustFP(t, static(scenario.StaticSpec{C: 2e-3, VMax: 3.0}), scenario.RunOptions{}); got == bare {
		t.Error("a non-default static VMax must change the address")
	}
}

// TestFingerprintIndependentOfJSONKeyOrder pins the canonicalization: an
// inline JSON submission hashes the same regardless of object key order,
// because specs are parsed into structs before encoding.
func TestFingerprintIndependentOfJSONKeyOrder(t *testing.T) {
	a := `{"name":"fp-json","trace":{"gen":"rf-cart"},"workload":{"bench":"SC","period":7},"buffers":[{"preset":"REACT"}],"dt":0.002}`
	b := `{"dt":0.002,"buffers":[{"preset":"REACT"}],"workload":{"period":7,"bench":"SC"},"trace":{"gen":"rf-cart"},"name":"fp-json"}`
	sa, err := scenario.ParseSpec([]byte(a))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := scenario.ParseSpec([]byte(b))
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := mustFP(t, sa, scenario.RunOptions{}), mustFP(t, sb, scenario.RunOptions{}); fa != fb {
		t.Errorf("key order changed the fingerprint: %s vs %s", fa, fb)
	}
}

func TestFingerprintLoadedTraceContent(t *testing.T) {
	loaded := func(name string, bump float64) *scenario.Spec {
		tr := trace.Steady(name, 5e-3, 60)
		tr.Power[10] += bump
		s := fpSpec()
		s.Trace = scenario.TraceSpec{Loaded: tr}
		return s
	}
	a := mustFP(t, loaded("shared", 0), scenario.RunOptions{})
	if b := mustFP(t, loaded("shared", 0), scenario.RunOptions{}); b != a {
		t.Error("identical loaded traces must hash identically")
	}
	if b := mustFP(t, loaded("shared", 1e-3), scenario.RunOptions{}); b == a {
		t.Error("a changed sample must change the fingerprint")
	}
	// The name seeds event schedules (TraceSeed), so it is content too.
	if b := mustFP(t, loaded("renamed", 0), scenario.RunOptions{}); b == a {
		t.Error("the trace name must change the fingerprint")
	}
}

func TestFingerprintRejectsCustomConstructors(t *testing.T) {
	s := fpSpec()
	s.Buffers = append(s.Buffers, scenario.BufferSpec{
		Label: "custom",
		New:   func() buffer.Buffer { return buffer.NewStatic(buffer.StaticConfig{C: 1e-3, VMax: 3.6}) },
	})
	if _, err := s.Fingerprint(); err == nil {
		t.Error("a Go-only constructor has no canonical encoding and must not fingerprint")
	}
}

// TestFingerprintCell pins the cell-address contract the service's
// cell-granular cache is built on: a cell's address is the run address of
// the equivalent single-buffer spec, distinct per buffer, and shared
// between any two specs whose physics agree on that buffer.
func TestFingerprintCell(t *testing.T) {
	s := fpSpec() // buffers: 770 µF, REACT
	c0, err := s.FingerprintCell(0, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c1, err := s.FingerprintCell(1, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c0 == c1 {
		t.Error("different buffers must have different cell addresses")
	}

	// A single-buffer run IS its cell.
	solo := fpSpec()
	solo.Buffers = scenario.Presets("REACT")
	if fp := mustFP(t, solo, scenario.RunOptions{}); fp != c1 {
		t.Error("a one-buffer run must share its cell's address")
	}

	// Two specs with the same physics but different buffer sets share the
	// overlapping cell — the sharing the service cache exploits.
	other := fpSpec()
	other.Buffers = scenario.Presets("Morphy", "REACT", "770 µF")
	oc, err := other.FingerprintCell(1, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if oc != c1 {
		t.Error("overlapping buffers across specs must share a cell address")
	}

	// Options participate exactly as they do in run addresses.
	seeded, err := s.FingerprintCell(1, scenario.RunOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if seeded == c1 {
		t.Error("the seed must separate cell addresses")
	}
	// Seed 1 spelled out resolves to the default address.
	explicit, err := s.FingerprintCell(1, scenario.RunOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if explicit != c1 {
		t.Error("the explicit default seed must share the defaulted cell address")
	}

	if _, err := s.FingerprintCell(2, scenario.RunOptions{}); err == nil {
		t.Error("an out-of-range buffer index must not fingerprint")
	}
	custom := fpSpec()
	custom.Buffers = []scenario.BufferSpec{{
		Label: "custom",
		New:   func() buffer.Buffer { return buffer.NewStatic(buffer.StaticConfig{C: 1e-3, VMax: 3.6}) },
	}}
	if _, err := custom.FingerprintCell(0, scenario.RunOptions{}); err == nil {
		t.Error("a Go-only constructor cell has no canonical encoding and must not fingerprint")
	}
}

func TestRegisteredScenariosAllFingerprint(t *testing.T) {
	seen := map[string]string{}
	for _, s := range scenario.All() {
		fp, err := s.Fingerprint()
		if err != nil {
			t.Errorf("%s: %v", s.Name, err)
			continue
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s and %s share a fingerprint", s.Name, prev)
		}
		seen[fp] = s.Name
	}
}

// TestValidateRejectsLabelShadowingPreset covers the display-name collision
// Run.Result/CellNamed would otherwise silently shadow: a custom buffer
// whose label equals another buffer's preset name.
func TestValidateRejectsLabelShadowingPreset(t *testing.T) {
	s := fpSpec()
	s.Buffers = append(s.Buffers, scenario.BufferSpec{
		Label:  "REACT",
		Static: &scenario.StaticSpec{C: 1e-3},
	})
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate buffer") {
		t.Errorf("label shadowing a preset must fail validation, got %v", err)
	}
}
