// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time from inputs derived from a seed, checks
// the program's outputs, and prints its metrics.
//
//	bash perfbench/run.sh --workload paper-grid-rf --seed 1 --seconds 15 --trace 0
//
// Workloads (see manifest.json for why each exists):
//
//	paper-grid-rf  the RF columns of the paper grid, in-process
//	reactd-cold    cold runs, sweeps and explorations through a 2-node reactd ring
//	reactd-reads   cached reads from one reactd node with a disk tier
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 it alternates untraced and traced units of work, records
// spans around every call it makes into the program, merges reactd's own
// span trees and counters, runs the isolated per-layer ladder and a CPU
// profile, and reports the per-layer metrics.
//
// Human-readable lines (metric, value, unit, sample count) go to stdout;
// the last line is one JSON object with keys correct, attempted, failed
// and metrics. The program touches nothing outside the directory it is
// started in: scratch files live under .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// quickSetups is how many times a workload with a millisecond set-up
// repeats it; setup_s is the median.
const quickSetups = 101

// manifestPath is read relative to the checkout root, where the benchmark
// is started.
const manifestPath = "perfbench/manifest.json"

// manifest holds the benchmark's fixed settings; manifest.json also
// documents the workloads, the held-out seed and the baseline findings.
type manifest struct {
	DefaultSeed      uint64     `json:"default_seed"`
	HitSLOms         float64    `json:"hit_slo_ms"`
	ReadRatePerS     float64    `json:"read_rate_per_s"`
	PromoteBand      [2]float64 `json:"promote_share_band"`
	GoldenDir        string     `json:"golden_dir"`
	GoldenSeed       uint64     `json:"golden_seed"`
	BalanceTolerance float64    `json:"balance_tolerance"`
	GoldenTolerance  float64    `json:"golden_tolerance"`
}

// env is everything a workload needs from the command line.
type env struct {
	seed    uint64
	seconds float64
	traced  bool
	man     manifest
	spec    spec
	scratch string // per-process scratch directory under .bench_build
	tr      *tracer
}

// report collects a workload's outcome.
type report struct {
	mu                sync.Mutex // guards attempted, failed and problems
	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	note  string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric with its sample count (0 = a single measurement or
// a count) and an optional note printed beside it.
func (r *report) set(name string, v float64, unit string, n int, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is not finite", name)
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit, n: n, note: note}
}

// fail records a correctness problem; any problem makes the run incorrect.
func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// op accounts one attempted operation and whether it failed.
func (r *report) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			r.problems = append(r.problems, fmt.Sprintf("operation failed: %v", err))
		}
	}
}

var workloads = map[string]func(e *env, r *report) error{
	"paper-grid-rf": runGrid,
	"reactd-cold":   runCold,
	"reactd-reads":  runReads,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload name: paper-grid-rf, reactd-cold or reactd-reads")
	seed := flag.Uint64("seed", 0, "workload seed (0 = the manifest's default seed)")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v (run from the repository root)\n", err)
		return 2
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", manifestPath, err)
		return 2
	}
	var sp spec
	if data, err = os.ReadFile("BENCHMARK.json"); err == nil {
		err = json.Unmarshal(data, &sp)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: BENCHMARK.json: %v\n", err)
		return 2
	}
	if _, err := os.Stat(filepath.Join(man.GoldenDir, "paper-de-rf-cart.json")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: golden files missing: %v\n", err)
		return 2
	}
	if *seed == 0 {
		*seed = man.DefaultSeed
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	tmp := filepath.Join(".bench_build", "tmp")
	scratch, err := os.MkdirTemp(tmp, *name+"-")
	if os.IsNotExist(err) {
		if err = os.MkdirAll(tmp, 0o755); err == nil {
			scratch, err = os.MkdirTemp(tmp, *name+"-")
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch dir: %v\n", err)
		return 2
	}
	defer os.RemoveAll(scratch)

	e := &env{seed: *seed, seconds: *seconds, traced: *trace == 1, man: man, spec: sp, scratch: scratch, tr: newTracer()}
	r := newReport()
	began := time.Now()
	if err := fn(e, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	r.set("peak_rss_mb", peakRSSMB(), "MB", 0, "VmHWM of this process")
	if e.traced {
		if err := e.tr.write(*name); err != nil {
			r.fail("writing spans: %v", err)
		}
	}
	emit(r, *name, e, time.Since(began))
	return 0
}

// spec is the part of BENCHMARK.json the program reads: the metrics it
// must report and their units.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// emit prints the human-readable table and the final JSON line: the
// end-to-end metrics of BENCHMARK.json in untraced mode, its per-layer ones
// in traced mode. A per-layer row the workload does not exercise reads 0.
func emit(r *report, name string, e *env, took time.Duration) {
	want := e.spec.EndToEnd
	if e.traced {
		want = e.spec.PerLayer
	}
	out := map[string]metric{}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v took=%.1fs\n", name, e.seed, e.seconds, e.traced, took.Seconds())
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("  %-28s %14.6g %-6s n=%d (failed %d)\n", "error_rate", errRate, "share", r.attempted, r.failed)
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		switch {
		case !ok && e.traced:
			v = metric{Unit: m.Unit, note: "not exercised by this workload"}
		case !ok:
			r.fail("metric %s not measured", m.Name)
			continue
		case v.Unit != m.Unit:
			r.fail("metric %s measured in %s, BENCHMARK.json says %s", m.Name, v.Unit, m.Unit)
		}
		out[m.Name] = v
		line := fmt.Sprintf("  %-28s %14.6g %-6s", m.Name, v.Value, v.Unit)
		if v.n > 0 {
			line += fmt.Sprintf(" n=%d", v.n)
		}
		if v.note != "" {
			line += " " + v.note
		}
		fmt.Println(line)
	}
	if r.attempted == 0 {
		r.fail("no operation attempted")
		r.attempted = 1
		r.failed = 1
	}
	for _, p := range r.problems {
		fmt.Println("  PROBLEM:", p)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0, r.attempted, r.failed, out}
	data, err := json.Marshal(res)
	if err != nil {
		panic(err) // a metric value that cannot marshal is a bug in this program
	}
	fmt.Println(string(data))
}

// peakRSSMB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%g", &kb)
			return kb / 1024
		}
	}
	return math.NaN()
}

// --- sample statistics ---

// quantile returns the nearest-rank q-quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the requested tail quantile, lowered to the highest one
// that still has at least ten samples beyond it. It returns the quantile
// used so the report can say which one it is.
func tailQuantile(xs []float64, want float64) (float64, float64) {
	q := want
	if n := float64(len(xs)); n > 0 && n*(1-q) < 10 {
		q = math.Max(0.5, 1-10/n)
	}
	return quantile(xs, q), q
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// setHits records the hit latencies from samples in milliseconds, with
// failed operations counted as missing the limit. The tail percentile does
// not repeat between runs on a small shared machine, so it is reported as
// a per-layer row (bench.hit_p99_ms) rather than a bounded end-to-end one.
func setHits(r *report, e *env, lat []float64, failed int, what string) {
	p50 := median(lat)
	tail, q := tailQuantile(lat, 0.99)
	under := 0
	for _, l := range lat {
		if l <= e.man.HitSLOms {
			under++
		}
	}
	total := len(lat) + failed
	fmt.Printf("  hit tail: p90 %.4g  p95 %.4g  p99 %.4g  p99.9 %.4g ms of %d\n",
		quantile(lat, 0.9), quantile(lat, 0.95), quantile(lat, 0.99), quantile(lat, 0.999), len(lat))
	r.set("hit_p50_ms", p50, "ms", len(lat), what)
	r.set("bench.hit_p99_ms", tail, "ms", len(lat), fmt.Sprintf("p%.4g %s", 100*q, what))
	if total == 0 {
		r.set("hit_slo_share", math.NaN(), "share", 0, "")
		return
	}
	r.set("hit_slo_share", float64(under)/float64(total), "share", total, fmt.Sprintf("under %g ms", e.man.HitSLOms))
}
