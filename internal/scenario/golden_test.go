package scenario_test

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"react/internal/buffer"
	"react/internal/experiments"
	"react/internal/scenario"
	"react/internal/sim"
	"react/internal/simtest"
)

// The golden-metrics regression harness: every registered scenario (the
// extended catalogue and the paper grid) has a committed metrics snapshot
// at the pinned default seed. Any behavioural change to the simulation
// stack — buffers, workloads, traces, the hot loop — shows up as a golden
// diff, which makes this suite the tier-1 guard for future optimizations.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/scenario -run Golden -update

var update = flag.Bool("update", false, "rewrite the golden metric files")

type goldenCell struct {
	Latency   float64            `json:"latency_s"`
	OnTime    float64            `json:"on_time_s"`
	Duration  float64            `json:"duration_s"`
	Cycles    int                `json:"cycles"`
	MeanCycle float64            `json:"mean_cycle_s"`
	Stored    float64            `json:"stored_j"`
	Ledger    buffer.Ledger      `json:"ledger"`
	Metrics   map[string]float64 `json:"metrics"`
}

type goldenFile struct {
	Scenario string                `json:"scenario"`
	Seed     uint64                `json:"seed"`
	Buffers  map[string]goldenCell `json:"buffers"`
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

func toGolden(r sim.Result) goldenCell {
	return goldenCell{
		Latency:   r.Latency,
		OnTime:    r.OnTime,
		Duration:  r.Duration,
		Cycles:    r.Cycles,
		MeanCycle: r.MeanCycle,
		Stored:    r.Stored,
		Ledger:    r.Ledger,
		Metrics:   r.Metrics,
	}
}

func writeGolden(t *testing.T, g goldenFile) {
	t.Helper()
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(g.Scenario)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(g.Scenario), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t *testing.T, name string) goldenFile {
	t.Helper()
	data, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatalf("%s: %v", goldenPath(name), err)
	}
	return g
}

// same reports a and b bit-identical. The files store full float64
// precision and encoding/json round-trips a float64 exactly, so a golden
// holds exactly the bits the run produced: any difference is a physics
// change, not formatting noise.
func same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func diffCell(t *testing.T, label string, got, want goldenCell) {
	t.Helper()
	check := func(field string, g, w float64) {
		if !same(g, w) {
			t.Errorf("%s: %s drifted: %.17g, golden %.17g", label, field, g, w)
		}
	}
	check("latency", got.Latency, want.Latency)
	check("on_time", got.OnTime, want.OnTime)
	check("duration", got.Duration, want.Duration)
	check("mean_cycle", got.MeanCycle, want.MeanCycle)
	check("stored", got.Stored, want.Stored)
	if got.Cycles != want.Cycles {
		t.Errorf("%s: cycles drifted: %d, golden %d", label, got.Cycles, want.Cycles)
	}
	check("ledger.harvested", got.Ledger.Harvested, want.Ledger.Harvested)
	check("ledger.consumed", got.Ledger.Consumed, want.Ledger.Consumed)
	check("ledger.clipped", got.Ledger.Clipped, want.Ledger.Clipped)
	check("ledger.leaked", got.Ledger.Leaked, want.Ledger.Leaked)
	check("ledger.switch_loss", got.Ledger.SwitchLoss, want.Ledger.SwitchLoss)
	check("ledger.overhead", got.Ledger.Overhead, want.Ledger.Overhead)
	for k, w := range want.Metrics {
		g, ok := got.Metrics[k]
		if !ok {
			t.Errorf("%s: metric %q disappeared", label, k)
			continue
		}
		if !same(g, w) {
			t.Errorf("%s: metric %q drifted: %.17g, golden %.17g", label, k, g, w)
		}
	}
	for k := range got.Metrics {
		if _, ok := want.Metrics[k]; !ok {
			t.Errorf("%s: new metric %q not in golden (run -update)", label, k)
		}
	}
}

// TestGoldenScenarios runs every extended (non-paper) scenario at the
// pinned seed and diffs its metrics against the committed golden file.
// Long scenarios are skipped under -short.
func TestGoldenScenarios(t *testing.T) {
	for _, spec := range scenario.Extended() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			if testing.Short() && spec.Long {
				t.Skip("long scenario; run without -short")
			}
			run, err := spec.Run(context.Background(), nil, scenario.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got := goldenFile{Scenario: spec.Name, Seed: run.Seed, Buffers: map[string]goldenCell{}}
			for i, res := range run.Results {
				label := spec.Buffers[i].DisplayName()
				got.Buffers[label] = toGolden(res)
				simtest.CheckBalance(t, spec.Name+"/"+label, res, 1e-6)
			}
			if *update {
				writeGolden(t, got)
				return
			}
			want := readGolden(t, spec.Name)
			if want.Seed != got.Seed {
				t.Fatalf("golden seed %d, run seed %d", want.Seed, got.Seed)
			}
			for label, w := range want.Buffers {
				g, ok := got.Buffers[label]
				if !ok {
					t.Errorf("buffer %q disappeared from the scenario", label)
					continue
				}
				diffCell(t, spec.Name+"/"+label, g, w)
			}
			for label := range got.Buffers {
				if _, ok := want.Buffers[label]; !ok {
					t.Errorf("buffer %q not in golden (run -update)", label)
				}
			}
		})
	}
}

// TestGoldenPaperCell runs one paper scenario — paper-de-rf-cart, the
// five paper buffers in one lockstep RunBatch — and diffs it against its
// committed golden file. It keeps the paper buffers' goldens checked in the
// -short tier, which skips TestGoldenPaperGrid.
func TestGoldenPaperCell(t *testing.T) {
	const name = "paper-de-rf-cart"
	spec, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	items := make([]scenario.BatchItem, len(spec.Buffers))
	for i := range spec.Buffers {
		items[i] = scenario.BatchItem{Spec: spec, Buffer: i}
	}
	results, err := scenario.RunBatch(items, scenario.RunOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := readGolden(t, name)
	if len(want.Buffers) != len(results) {
		t.Fatalf("golden has %d buffers, the scenario runs %d", len(want.Buffers), len(results))
	}
	for i, res := range results {
		label := spec.Buffers[i].DisplayName()
		w, ok := want.Buffers[label]
		if !ok {
			t.Errorf("buffer %q not in golden", label)
			continue
		}
		simtest.CheckBalance(t, name+"/"+label, res, 1e-6)
		diffCell(t, name+"/"+label, toGolden(res), w)
	}
}

// TestGoldenPaperGrid runs the full paper evaluation through the
// registry-consuming grid path, diffs every cell against the paper
// scenarios' golden files, and pins the Figure 7 headline numbers to the
// values recorded in BENCH_1.json — a zero-diff guarantee that the
// scenario port did not move the paper's results.
func TestGoldenPaperGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid takes ~1 minute")
	}
	g, err := experiments.RunGrid(scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Cell-level goldens, one file per paper scenario (bench × trace).
	for _, bench := range experiments.BenchmarkNames {
		for _, tr := range g.Traces {
			name := scenario.PaperName(bench, tr.Name)
			got := goldenFile{Scenario: name, Seed: 1, Buffers: map[string]goldenCell{}}
			for _, buf := range experiments.BufferNames {
				res := g.At(bench, tr.Name, buf)
				got.Buffers[buf] = toGolden(res)
				simtest.CheckBalance(t, name+"/"+buf, res, 1e-6)
			}
			if *update {
				writeGolden(t, got)
				continue
			}
			want := readGolden(t, name)
			for label, w := range want.Buffers {
				diffCell(t, name+"/"+label, got.Buffers[label], w)
			}
		}
	}

	// Headline check against the benchmark history file at the repo root.
	f := experiments.ComputeFigure7(g)
	recorded := readBench1Figure7(t)
	for buf, key := range map[string]string{
		"770 µF": "gain_vs_770uF_pct",
		"10 mF":  "gain_vs_10mF_pct",
		"17 mF":  "gain_vs_17mF_pct",
		"Morphy": "gain_vs_Morphy_pct",
	} {
		want, ok := recorded[key]
		if !ok {
			t.Fatalf("BENCH_1.json is missing %s", key)
		}
		got := f.Improvement[buf] * 100
		// BENCH_1 predates the sim-loop time fix that stopped a trace from
		// delivering one extra tick of its last sample (accumulated t lagged
		// the tick grid), which moved the headline gains by up to ~0.03 pp.
		// Compare against the recorded history at a tolerance that admits
		// that correction while still catching real regressions; the
		// per-cell golden files pin the current behaviour bit for bit.
		const tol = 0.05
		if math.Abs(got-want) > tol {
			t.Errorf("Figure 7 %s: %.4f%% differs from BENCH_1's %.4f%%", buf, got, want)
		}
	}
}

// readBench1Figure7 extracts the recorded Figure 7 metrics from the
// repository's BENCH_1.json history file.
func readBench1Figure7(t *testing.T) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var hist struct {
		Benchmarks map[string]struct {
			Metrics map[string]float64 `json:"metrics"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &hist); err != nil {
		t.Fatal(err)
	}
	fig7, ok := hist.Benchmarks["BenchmarkFigure7"]
	if !ok {
		t.Fatal("BENCH_1.json has no BenchmarkFigure7 entry")
	}
	return fig7.Metrics
}

// TestGoldenFilesCoverEveryScenario fails when a registered scenario has
// no committed golden file — adding a scenario means committing its
// snapshot in the same change.
func TestGoldenFilesCoverEveryScenario(t *testing.T) {
	if *update {
		t.Skip("update run")
	}
	for _, name := range scenario.Names() {
		if _, err := os.Stat(goldenPath(name)); err != nil {
			t.Errorf("scenario %q has no golden file: %v (run: go test ./internal/scenario -run Golden -update)", name, err)
		}
	}
}
