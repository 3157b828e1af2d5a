package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"

	"react/internal/buffer"
	"react/internal/service"
	"react/internal/sim"
)

// goldenCell mirrors one buffer entry of the committed golden files in
// internal/scenario/testdata/golden; the benchmark only reads them.
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

func readGolden(dir, name string) (*goldenFile, error) {
	data, err := os.ReadFile(filepath.Join(dir, name+".json"))
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", name, err)
	}
	return &g, nil
}

// diffGolden compares a result with its golden cell at tol, relative for
// values above 1 (the golden harness's rule), and returns the first
// difference.
func diffGolden(got sim.Result, want goldenCell, tol float64) error {
	near := func(a, b float64) bool {
		return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	}
	fields := []struct {
		name string
		g, w float64
	}{
		{"latency", got.Latency, want.Latency},
		{"on_time", got.OnTime, want.OnTime},
		{"duration", got.Duration, want.Duration},
		{"mean_cycle", got.MeanCycle, want.MeanCycle},
		{"stored", got.Stored, want.Stored},
		{"cycles", float64(got.Cycles), float64(want.Cycles)},
		{"ledger.harvested", got.Ledger.Harvested, want.Ledger.Harvested},
		{"ledger.consumed", got.Ledger.Consumed, want.Ledger.Consumed},
		{"ledger.clipped", got.Ledger.Clipped, want.Ledger.Clipped},
		{"ledger.leaked", got.Ledger.Leaked, want.Ledger.Leaked},
		{"ledger.switch_loss", got.Ledger.SwitchLoss, want.Ledger.SwitchLoss},
		{"ledger.overhead", got.Ledger.Overhead, want.Ledger.Overhead},
	}
	for _, f := range fields {
		if !near(f.g, f.w) {
			return fmt.Errorf("%s %.17g, golden %.17g", f.name, f.g, f.w)
		}
	}
	if len(got.Metrics) != len(want.Metrics) {
		return fmt.Errorf("%d workload metrics, golden has %d", len(got.Metrics), len(want.Metrics))
	}
	for k, w := range want.Metrics {
		if g, ok := got.Metrics[k]; !ok || !near(g, w) {
			return fmt.Errorf("metric %s %.17g, golden %.17g", k, g, w)
		}
	}
	return nil
}

// cellBits is a result's wire-visible numbers as exact bit patterns, for
// bit-equality checks between reactd, in-process runs and repeat reads.
type cellBits string

func bitsOf(c *service.CellResult) cellBits {
	if c == nil {
		return ""
	}
	keys := make([]string, 0, len(c.Metrics))
	for k := range c.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := fmt.Sprintf("%x %x %x %d %x %x %x %x %x %x %x %x %x",
		math.Float64bits(c.Latency), math.Float64bits(c.OnTime), math.Float64bits(c.Duration), c.Cycles,
		math.Float64bits(c.MeanCycle), math.Float64bits(c.Stored), math.Float64bits(c.InitialStored),
		math.Float64bits(c.Ledger.Harvested), math.Float64bits(c.Ledger.Consumed), math.Float64bits(c.Ledger.Clipped),
		math.Float64bits(c.Ledger.Leaked), math.Float64bits(c.Ledger.SwitchLoss), math.Float64bits(c.Ledger.Overhead))
	for _, k := range keys {
		s += fmt.Sprintf(" %s=%x", k, math.Float64bits(c.Metrics[k]))
	}
	return cellBits(s)
}

// simBits is bitsOf for an in-process result.
func simBits(r sim.Result) cellBits {
	return bitsOf(&service.CellResult{
		Latency: r.Latency, OnTime: r.OnTime, Duration: r.Duration, Cycles: r.Cycles,
		MeanCycle: r.MeanCycle, Stored: r.Stored, InitialStored: r.InitialStored,
		Metrics: r.Metrics, Ledger: r.Ledger,
	})
}

// goStats snapshots the Go runtime counters the per-layer report uses.
type goStats struct {
	mallocs     uint64
	gcCPU, cpuS float64
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	g := goStats{mallocs: ms.Mallocs}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		g.cpuS = samples[1].Value.Float64()
	}
	return g
}

// gcShare is the share of CPU time the garbage collector used between two
// snapshots.
func gcShare(a, b goStats) float64 {
	if b.cpuS <= a.cpuS {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.cpuS - a.cpuS)
}
