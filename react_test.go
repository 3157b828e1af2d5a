package react_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"react"
)

// TestPublicAPIEndToEnd exercises the documented quick-start path.
func TestPublicAPIEndToEnd(t *testing.T) {
	buf := react.NewREACT(react.DefaultConfig())
	dev := react.NewDevice(react.DefaultProfile(), react.NewDataEncryption(0.6e-3))
	res, err := react.Run(react.SimConfig{
		Frontend: react.NewFrontend(react.RFCart(1), nil),
		Buffer:   buf,
		Device:   dev,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Buffer != "REACT" || res.Workload != "DE" {
		t.Errorf("labels %q/%q", res.Buffer, res.Workload)
	}
	if res.Metrics["blocks"] <= 0 {
		t.Error("no work done")
	}
	if e := res.EnergyBalanceError(); e > 1e-9 {
		t.Errorf("energy balance error %g", e)
	}
}

func TestAllBuffersThroughFacade(t *testing.T) {
	buffers := []react.Buffer{
		react.NewStatic(react.StaticConfig{C: 770e-6, VMax: 3.6}),
		react.NewMorphy(react.DefaultMorphyConfig()),
		react.NewREACT(react.DefaultConfig()),
	}
	for _, buf := range buffers {
		prof := react.DefaultProfile()
		res, err := react.Run(react.SimConfig{
			Frontend: react.NewFrontend(react.RFObstructed(1), nil),
			Buffer:   buf,
			Device:   react.NewDevice(prof, react.NewSenseCompute(prof.SleepI)),
		})
		if err != nil {
			t.Fatalf("%s: %v", buf.Name(), err)
		}
		if res.Duration <= 0 {
			t.Errorf("%s: no simulated time", buf.Name())
		}
	}
}

func TestEquationHelpers(t *testing.T) {
	// Equation 1 at N=2, C_unit=5 mF, C_last=770 µF, V_low=1.9 V.
	v := react.VoltageAfterReclaim(2, 5e-3, 770e-6, 1.9)
	want := (2*1.9*2.5e-3 + 1.9*770e-6) / (770e-6 + 2.5e-3)
	if math.Abs(v-want) > 1e-12 {
		t.Errorf("Equation 1 = %g, want %g", v, want)
	}
	limit := react.MaxUnitCapacitance(2, 770e-6, 1.9, 3.5)
	if limit <= 5e-3 {
		t.Errorf("Table 1 bank 5 must satisfy Equation 2, limit %g", limit)
	}
}

func TestLevelForThroughFacade(t *testing.T) {
	buf := react.NewREACT(react.DefaultConfig())
	lvl, ok := react.LevelFor(buf, 5e-3)
	if !ok || lvl == 0 {
		t.Errorf("LevelFor(5 mJ) = %d,%v", lvl, ok)
	}
}

func TestTraceHelpers(t *testing.T) {
	traces := react.EvaluationTraces(1)
	if len(traces) != 5 {
		t.Fatalf("want 5 evaluation traces, got %d", len(traces))
	}
	if react.PedestrianSolar(1).Duration() != 3500 {
		t.Error("pedestrian trace duration")
	}
	if react.NightTrace(1).Stats().Mean > 1e-3 {
		t.Error("night trace too strong")
	}
	var b strings.Builder
	if err := traces[0].WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	back, err := react.ReadTraceCSV("rt", strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Power) != len(traces[0].Power) {
		t.Error("CSV round trip lost samples")
	}
}

func TestConverterConstructors(t *testing.T) {
	for _, c := range []react.Converter{
		react.IdentityConverter(), react.RFRectifierConverter(), react.SolarBoostConverter(),
	} {
		if c.Name() == "" {
			t.Error("converter must be named")
		}
		if out := c.Deliver(10e-3, 2.5); out < 0 || out > 10e-3 {
			t.Errorf("%s: Deliver out of range: %g", c.Name(), out)
		}
	}
}

func TestBankStateConstants(t *testing.T) {
	if react.Disconnected.String() != "disconnected" ||
		react.Series.String() != "series" ||
		react.Parallel.String() != "parallel" {
		t.Error("bank state names")
	}
}

// TestREACTBufferIntrospection checks the adaptive buffer's exported
// inspection surface.
func TestREACTBufferIntrospection(t *testing.T) {
	buf := react.NewREACT(react.DefaultConfig())
	if got := buf.MaxLevel(); got != 10 {
		t.Errorf("max level %d, want 10 (5 banks × 2 steps)", got)
	}
	if len(buf.Banks()) != 5 {
		t.Errorf("banks %d, want 5", len(buf.Banks()))
	}
	if buf.Config().MaxCapacitance() < 18e-3 {
		t.Error("capacitance range top")
	}
	if buf.Level() != 0 {
		t.Error("fresh buffer starts at level 0")
	}
}

// TestScenarioAPI exercises the scenario registry surface: listing,
// lookup, JSON parsing, and an end-to-end run of a fast catalogue entry.
func TestScenarioAPI(t *testing.T) {
	nonPaper := 0
	for _, s := range react.Scenarios() {
		if !s.Paper {
			nonPaper++
		}
	}
	if nonPaper < 8 {
		t.Fatalf("registry ships %d non-paper scenarios, want >= 8", nonPaper)
	}
	if _, ok := react.ScenarioByName("energy-attack"); !ok {
		t.Fatal("energy-attack must be registered")
	}
	if _, ok := react.ScenarioByName("paper-de-rf-cart"); !ok {
		t.Fatal("the paper grid must be registered")
	}

	run, err := react.RunScenario(context.Background(), "tiny-cap-degraded", react.ScenarioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Results) != len(run.Spec.Buffers) {
		t.Fatalf("got %d results for %d buffers", len(run.Results), len(run.Spec.Buffers))
	}
	if res, ok := run.Result("330 µF aged"); !ok || res.Buffer != "330 µF aged" {
		t.Errorf("custom static buffer missing from the run: %v %v", ok, res.Buffer)
	}

	spec, err := react.ParseScenario([]byte(`{
		"name": "adhoc-json",
		"trace": {"gen": "steady", "mean": 0.005, "duration": 30},
		"workload": {"bench": "DE"},
		"buffers": [{"preset": "770 µF"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := spec.Run(context.Background(), nil, react.ScenarioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Results[0].Metrics["blocks"] == 0 {
		t.Error("JSON-built scenario did no work")
	}
	if _, err := react.ParseScenario([]byte(`{"name":"bad","trace":{"gen":"nope"},"workload":{"bench":"DE"},"buffers":[{"preset":"770 µF"}]}`)); err == nil {
		t.Error("unknown generator must fail validation")
	}
}

// TestServiceFacade boots an in-process reactd, dials it through the
// exported client surface, and exercises Run, RunAsync and the
// content-addressed cache end to end.
func TestServiceFacade(t *testing.T) {
	srv, err := react.NewService(react.ServiceConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	client, err := react.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	spec := json.RawMessage(`{
		"name": "facade-smoke",
		"trace": {"gen": "steady", "mean": 0.01, "duration": 30},
		"workload": {"bench": "DE"},
		"buffers": [{"preset": "770 µF"}, {"preset": "REACT"}]
	}`)
	st, err := client.Run(ctx, react.RunRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	res, ok := st.Result("REACT")
	if !ok || res.Metrics["blocks"] <= 0 {
		t.Fatalf("no REACT result in %+v", st.Cells)
	}

	// The identical submission is served from the cache without simulating.
	rr, err := client.RunAsync(ctx, react.RunRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Submitted.Cached {
		t.Error("identical resubmission must be a cache hit")
	}
	again, err := rr.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r2, _ := again.Result("REACT"); r2.Metrics["blocks"] != res.Metrics["blocks"] {
		t.Error("cached result diverged from the original")
	}

	m, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.CacheMisses != 1 || m.SimsCompleted != 2 {
		t.Errorf("misses %d sims %d, want 1 simulation of 2 cells total", m.CacheMisses, m.SimsCompleted)
	}

	infos, err := client.Scenarios(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(react.Scenarios()) {
		t.Errorf("service lists %d scenarios, registry has %d", len(infos), len(react.Scenarios()))
	}
}

func TestExploreFacade(t *testing.T) {
	space, err := react.ParseExploreSpace([]byte(`{
		"spec": {
			"name": "facade-explore",
			"trace": {"gen": "steady", "mean": 0.01, "duration": 20},
			"workload": {"bench": "DE"},
			"buffers": [{"preset": "REACT"}]
		},
		"static": {"from": 500e-6, "to": 5e-3, "points": 3},
		"presets": ["REACT"],
		"pareto": [{"x": "c", "y": "latency"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := react.Explore(ctx, space, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 4 || len(res.Frontiers) != 1 {
		t.Fatalf("exploration wrong: evaluated %d, %d frontiers", res.Evaluated, len(res.Frontiers))
	}

	// A cancelled context stops the exploration before any batch runs.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := react.Explore(cancelled, space, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled exploration returned %v, want context.Canceled", err)
	}

	// And the remote path serves the identical result from a daemon.
	srv, err := react.NewService(react.ServiceConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	client, err := react.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.Explore(ctx, space)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Result, res) {
		t.Error("remote exploration diverged from the local one")
	}
}
