// Command reactsim runs simulation cells: a power trace driving an energy
// buffer powering a benchmark workload, and reports the outcome.
//
// Usage:
//
//	reactsim [-trace name|-tracefile f.csv] [-buffer name] [-bench name]
//	         [-seed n] [-seeds n] [-dt s] [-record file.csv] [-timeline f.json] [-v]
//	reactsim -list
//	reactsim -scenario name [-seed n] [-workers n] [-json] [-timeline f.json]
//	reactsim -scenario-file spec.json [-seed n] [-workers n] [-json] [-timeline f.json]
//	reactsim -explore space.json [-target metric<=value] [-workers n] [-json]
//	reactsim -remote http://host:port -scenario name [-seed n|-seeds n] [-dt s] [-json]
//	reactsim -remote http://host:port -explore space.json [-target ...] [-json]
//
// With -seeds n (n > 1) it runs a multi-seed sweep through the shared
// experiment engine — n independent instances of the scenario on seeds
// 1..n — and reports each metric's across-seed mean and standard
// deviation instead of a single run's values.
//
// -list prints the scenario registry (the extended stress catalogue plus
// the paper's evaluation grid); -scenario runs one registered scenario
// over its whole buffer set, and -scenario-file runs a JSON scenario spec,
// so new workloads are runnable without recompiling. -json emits the
// scenario results as machine-readable JSON.
//
// -explore runs a design-space exploration from a JSON space file: a base
// scenario crossed with a capacitance lattice, preset buffers, timestep
// values, seed ranges, and JSON-patchable spec knobs, evaluated by an
// exhaustive grid or by bisection toward a metric target (-target
// "latency<=0.5" or "blocks>=100" sets or overrides the goal and, when
// the space names no strategy, selects bisection). The report lists every
// evaluated point, the Pareto frontiers the space asked for, and the
// minimal design meeting the target; -json emits the full result.
//
// The mode flags -list, -scenario, -scenario-file and -explore are
// mutually exclusive: naming two modes is an error, not a silent
// precedence.
//
// -remote targets a reactd daemon instead of simulating locally: a
// scenario run becomes POST /runs, -seeds n becomes POST /sweeps over
// seeds 1..n, and -explore becomes POST /explorations, all served from the
// daemon's content-addressed cell cache — repeated and overlapping
// submissions reuse already-simulated cells. Remote reports are
// bit-identical to their local equivalents for the same inputs (the
// daemon aggregates and explores with the same code).
//
// -timeline records the run as a Chrome trace-event JSON timeline —
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing — showing
// each cell's device-state spans (booting/on/backing/restoring, off as
// gaps), checkpoint backup/restore instants, buffer-capacitance counter
// samples, and the engine's dead-time fast-forward parks. It applies to
// local single-cell and scenario runs; remote runs, explorations and
// multi-seed sweeps reject it (their cells overlap one timeline).
//
// -cpuprofile and -memprofile write pprof profiles (any mode): the CPU
// profile covers the whole run, and the heap profile is captured on exit
// after a final GC. Inspect with `go tool pprof`.
//
// Buffers: "770 µF", "10 mF", "17 mF", "Morphy", "REACT", plus the
// related-work extensions "Capybara" and "Dewdrop".
// Benchmarks: DE, SC, RT, PF (plus ML and MIX in scenario specs).
// Traces: any registered generator (rf-cart, energy-attack, solar-72h,
// ...) or the short aliases cart, obstructed, mobile, campus, commute.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"react/internal/ckpt"
	"react/internal/experiments"
	"react/internal/explore"
	"react/internal/mcu"
	"react/internal/obs"
	"react/internal/runner"
	"react/internal/scenario"
	"react/internal/service"
	"react/internal/sim"
	"react/internal/trace"
)

// traceAliases maps the CLI's historical short trace names onto the
// canonical generator registry, which -trace also accepts directly — one
// registry serves the CLI, the scenario specs, and the library.
var traceAliases = map[string]string{
	"cart":       "rf-cart",
	"obstructed": "rf-obstructed",
	"mobile":     "rf-mobile",
	"campus":     "solar-campus",
	"commute":    "solar-commute",
}

// traceSpec resolves -trace (a generator name or short alias) or
// -tracefile (a CSV trace, loaded once and shared by every cell) into a
// spec's trace selection.
func traceSpec(name, file string) (scenario.TraceSpec, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return scenario.TraceSpec{}, err
		}
		defer f.Close()
		tr, err := trace.ReadCSV(file, f)
		return scenario.TraceSpec{Loaded: tr}, err
	}
	if canon, ok := traceAliases[name]; ok {
		name = canon
	}
	if !trace.KnownGenerator(name) {
		return scenario.TraceSpec{}, fmt.Errorf("unknown trace %q (want a short name — cart, obstructed, mobile, campus, commute — or a generator: %v)",
			name, trace.GeneratorNames())
	}
	return scenario.TraceSpec{Gen: name}, nil
}

// cellSpec builds the inline one-cell spec of the single-cell and -seeds
// modes: one trace, one preset buffer, one benchmark.
func cellSpec(traceName, traceFile, bufName, bench string) (*scenario.Spec, error) {
	ts, err := traceSpec(traceName, traceFile)
	if err != nil {
		return nil, err
	}
	return &scenario.Spec{
		Name:     "reactsim-cell",
		Trace:    ts,
		Workload: scenario.WorkloadSpec{Bench: bench},
		Buffers:  scenario.Presets(bufName),
	}, nil
}

func main() { os.Exit(run()) }

// run is main's body with an exit code instead of os.Exit calls, so the
// deferred profile writers actually run — os.Exit would skip them and
// truncate -cpuprofile output to a useless header.
func run() int {
	var (
		traceName = flag.String("trace", "cart", "built-in trace name")
		traceFile = flag.String("tracefile", "", "CSV trace file (overrides -trace)")
		bufName   = flag.String("buffer", "REACT", `buffer design ("770 µF", "10 mF", "17 mF", "Morphy", "REACT", "Capybara", "Dewdrop")`)
		bench     = flag.String("bench", "DE", "benchmark (DE, SC, RT, PF)")
		seed      = flag.Uint64("seed", 1, "trace/event seed")
		seeds     = flag.Int("seeds", 1, "run a multi-seed sweep over seeds 1..n and report mean ± std")
		dt        = flag.Float64("dt", 1e-3, "integration timestep (s)")
		record    = flag.String("record", "", "write a voltage/state CSV recording to this file")
		verbose   = flag.Bool("v", false, "print the full energy ledger")
		list      = flag.Bool("list", false, "list the registered scenarios and exit")
		scenName  = flag.String("scenario", "", "run a registered scenario over its whole buffer set")
		scenFile  = flag.String("scenario-file", "", "run a JSON scenario spec (overrides -scenario)")
		workers   = flag.Int("workers", 0, "bound the scenario worker pool (0 = GOMAXPROCS)")
		jsonOut   = flag.Bool("json", false, "emit scenario results as JSON (with -scenario/-scenario-file/-explore)")
		remote    = flag.String("remote", "", "target a reactd daemon (http://host:port) instead of simulating locally")
		explFile  = flag.String("explore", "", "run a design-space exploration from a JSON space file")
		targetStr = flag.String("target", "", `exploration metric goal ("latency<=0.5", "blocks>=100"); needs -explore`)
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit (go tool pprof)")
		timeline  = flag.String("timeline", "", "record a Chrome trace-event timeline (Perfetto / chrome://tracing) to this JSON file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reactsim:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "reactsim:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "reactsim:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "reactsim:", err)
			}
		}()
	}

	// Which flags did the user set explicitly? Scenario specs carry their
	// own seed and timestep, so only explicit -seed/-dt override them, and
	// single-cell-only flags must not be silently ignored in scenario mode.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	// Conflicting mode selections are an error, never a silent precedence.
	if err := checkModeConflicts(explicit); err != nil {
		fmt.Fprintln(os.Stderr, "reactsim:", err)
		return 2
	}

	if *list {
		listScenarios()
		return 0
	}

	if *explFile != "" {
		for _, bad := range []string{"trace", "tracefile", "buffer", "bench", "record", "v", "seed", "seeds", "dt", "timeline"} {
			if explicit[bad] {
				fmt.Fprintf(os.Stderr, "reactsim: -%s does not apply to explorations (the space file defines the axes)\n", bad)
				return 2
			}
		}
		if *remote != "" && explicit["workers"] {
			fmt.Fprintln(os.Stderr, "reactsim: -workers does not apply to remote explorations (the daemon owns the pool)")
			return 2
		}
		if err := runExplore(*explFile, *targetStr, *remote, *workers, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "reactsim:", err)
			return 1
		}
		return 0
	}

	if *remote != "" {
		if *scenName == "" && *scenFile == "" {
			fmt.Fprintln(os.Stderr, "reactsim: -remote needs -scenario or -scenario-file (the daemon serves scenario specs)")
			return 2
		}
		for _, bad := range []string{"trace", "tracefile", "buffer", "bench", "record", "v", "workers", "timeline"} {
			if explicit[bad] {
				fmt.Fprintf(os.Stderr, "reactsim: -%s does not apply to remote runs (the daemon owns the simulation)\n", bad)
				return 2
			}
		}
		if explicit["seed"] && *seeds > 1 {
			fmt.Fprintln(os.Stderr, "reactsim: set -seed or -seeds, not both")
			return 2
		}
		seedOverride, dtOverride := uint64(0), 0.0
		if explicit["seed"] {
			seedOverride = *seed
		}
		if explicit["dt"] {
			dtOverride = *dt
		}
		if err := runRemote(*remote, *scenName, *scenFile, seedOverride, dtOverride, *seeds, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "reactsim:", err)
			return 1
		}
		return 0
	}

	if *scenName != "" || *scenFile != "" {
		for _, bad := range []string{"trace", "tracefile", "buffer", "bench", "seeds", "record", "v"} {
			if explicit[bad] {
				fmt.Fprintf(os.Stderr, "reactsim: -%s does not apply to scenario runs (scenarios define their own trace, workload and buffer set)\n", bad)
				return 2
			}
		}
		seedOverride, dtOverride := uint64(0), 0.0
		if explicit["seed"] {
			seedOverride = *seed
		}
		if explicit["dt"] {
			dtOverride = *dt
		}
		if err := runScenario(*scenName, *scenFile, seedOverride, *workers, dtOverride, *jsonOut, *timeline); err != nil {
			fmt.Fprintln(os.Stderr, "reactsim:", err)
			return 1
		}
		return 0
	}
	if *jsonOut {
		fmt.Fprintln(os.Stderr, "reactsim: -json requires -scenario or -scenario-file")
		return 2
	}

	// Check the buffer and benchmark names up front, so bad CLI input is a
	// usage error (exit 2) listing the valid names.
	if err := validateNames(*bufName, *bench); err != nil {
		fmt.Fprintln(os.Stderr, "reactsim:", err)
		return 2
	}

	if *seeds > 1 {
		if explicit["timeline"] {
			fmt.Fprintln(os.Stderr, "reactsim: -timeline does not apply to multi-seed sweeps (every seed is the same cell; record one seed at a time)")
			return 2
		}
		if err := sweepSeeds(*traceName, *traceFile, *bufName, *bench, *seeds, *dt); err != nil {
			fmt.Fprintln(os.Stderr, "reactsim:", err)
			return 1
		}
		return 0
	}

	spec, err := cellSpec(*traceName, *traceFile, *bufName, *bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reactsim:", err)
		return 1
	}
	tr, err := spec.Trace.Build(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reactsim:", err)
		return 1
	}

	opt := scenario.RunOptions{Seed: *seed, DT: *dt}
	if *record != "" {
		opt.RecordDT = 0.5
	}
	var tl *obs.SimTimeline
	if *timeline != "" {
		tl = obs.NewSimTimeline(0)
		tl.Label(0, *bufName+" / "+*bench)
		opt.Probe = tl
	}
	res, err := spec.Cell(0, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reactsim:", err)
		return 1
	}
	if tl != nil {
		if err := writeTimeline(tl, *timeline); err != nil {
			fmt.Fprintln(os.Stderr, "reactsim:", err)
			return 1
		}
	}

	s := tr.Stats()
	fmt.Printf("trace    %s (%.0f s, %.3g mW mean, CV %.0f%%)\n", tr.Name, s.Duration, s.Mean*1e3, s.CV*100)
	fmt.Printf("buffer   %s\n", res.Buffer)
	fmt.Printf("bench    %s\n", res.Workload)
	if res.Latency < 0 {
		fmt.Printf("latency  never started\n")
	} else {
		fmt.Printf("latency  %.2f s\n", res.Latency)
	}
	fmt.Printf("on-time  %.1f s of %.1f s (%.1f%% duty)\n", res.OnTime, res.Duration, res.OnFraction()*100)
	fmt.Printf("cycles   %d (mean %.1f s)\n", res.Cycles, res.MeanCycle)
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("metric   %-10s %.0f\n", k, res.Metrics[k])
	}
	if *verbose {
		l := res.Ledger
		fmt.Printf("ledger   harvested %.4f J\n", l.Harvested)
		fmt.Printf("ledger   consumed  %.4f J\n", l.Consumed)
		fmt.Printf("ledger   clipped   %.4f J\n", l.Clipped)
		fmt.Printf("ledger   leaked    %.4f J\n", l.Leaked)
		fmt.Printf("ledger   switching %.4f J\n", l.SwitchLoss)
		fmt.Printf("ledger   overhead  %.4f J\n", l.Overhead)
		fmt.Printf("ledger   residual  %.4f J\n", res.Stored)
		fmt.Printf("ledger   balance error %.2e\n", res.EnergyBalanceError())
	}
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reactsim:", err)
			return 1
		}
		defer f.Close()
		if err := experiments.WriteSeriesCSV(f, res.Buffer, res.Samples); err != nil {
			fmt.Fprintln(os.Stderr, "reactsim:", err)
			return 1
		}
		fmt.Printf("recorded %d samples to %s\n", len(res.Samples), *record)
	}
	return 0
}

// listScenarios prints the registry: the extended catalogue first, then
// the paper grid.
func listScenarios() {
	specs := scenario.All()
	fmt.Println("Extended scenarios:")
	for _, s := range specs {
		if !s.Paper {
			fmt.Printf("  %-22s %s\n", s.Name, s.Title)
		}
	}
	fmt.Println("\nPaper evaluation grid:")
	for _, s := range specs {
		if s.Paper {
			fmt.Printf("  %-28s %s\n", s.Name, s.Title)
		}
	}
	fmt.Printf("\nDevice profiles:    %s\n", strings.Join(mcu.ProfileNames(), ", "))
	fmt.Printf("Checkpoint schemes: %s\n", strings.Join(ckpt.Names(), ", "))
	fmt.Println("\nRun one with: reactsim -scenario <name> [-seed n] [-workers n] [-json]")
}

// scenarioJSON is the machine-readable scenario report.
type scenarioJSON struct {
	Scenario string           `json:"scenario"`
	Title    string           `json:"title,omitempty"`
	Seed     uint64           `json:"seed"`
	Trace    string           `json:"trace"`
	Results  []scenarioResult `json:"results"`
}

type scenarioResult struct {
	Buffer       string             `json:"buffer"`
	Latency      float64            `json:"latency_s"`
	OnTime       float64            `json:"on_time_s"`
	Duration     float64            `json:"duration_s"`
	Duty         float64            `json:"duty"`
	Cycles       int                `json:"cycles"`
	MeanCycle    float64            `json:"mean_cycle_s"`
	Metrics      map[string]float64 `json:"metrics"`
	BalanceError float64            `json:"energy_balance_error"`
}

// writeTimeline flushes a recorded timeline to path and reports the event
// drop count, if any, so a truncated recording is never mistaken for a
// complete one.
func writeTimeline(tl *obs.SimTimeline, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tl.Flush(f); err != nil {
		return err
	}
	if d := tl.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "reactsim: timeline buffer full, %d events dropped (coarsen -dt or shorten the trace)\n", d)
	}
	fmt.Fprintf(os.Stderr, "reactsim: timeline written to %s (load in ui.perfetto.dev)\n", path)
	return nil
}

// runScenario resolves a scenario (registry name or JSON file), runs every
// buffer in its set over the engine's pool, and reports per-buffer
// results.
func runScenario(name, file string, seed uint64, workers int, dt float64, jsonOut bool, timeline string) error {
	var (
		spec *scenario.Spec
		err  error
	)
	if file != "" {
		data, rerr := os.ReadFile(file)
		if rerr != nil {
			return rerr
		}
		if spec, err = scenario.ParseSpec(data); err != nil {
			return err
		}
	} else {
		var ok bool
		if spec, ok = scenario.Lookup(name); !ok {
			return fmt.Errorf("unknown scenario %q (see reactsim -list)", name)
		}
	}

	opt := scenario.RunOptions{Seed: seed, DT: dt}
	var tl *obs.SimTimeline
	if timeline != "" {
		tl = obs.NewSimTimeline(0)
		for i, b := range spec.Buffers {
			tl.Label(i, b.DisplayName())
		}
		opt.Probe = tl
	}
	run, err := spec.Run(context.Background(), &runner.Runner{Workers: workers}, opt)
	if err != nil {
		return err
	}
	if tl != nil {
		if werr := writeTimeline(tl, timeline); werr != nil {
			return werr
		}
	}
	tr, err := spec.Trace.Build(run.Seed)
	if err != nil {
		return err
	}

	if jsonOut {
		out := scenarioJSON{Scenario: spec.Name, Title: spec.Title, Seed: run.Seed, Trace: tr.Name}
		for i, res := range run.Results {
			out.Results = append(out.Results, scenarioResult{
				Buffer:       spec.Buffers[i].DisplayName(),
				Latency:      res.Latency,
				OnTime:       res.OnTime,
				Duration:     res.Duration,
				Duty:         res.OnFraction(),
				Cycles:       res.Cycles,
				MeanCycle:    res.MeanCycle,
				Metrics:      res.Metrics,
				BalanceError: res.EnergyBalanceError(),
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	s := tr.Stats()
	fmt.Printf("scenario %s — %s\n", spec.Name, spec.Title)
	fmt.Printf("trace    %s (%.0f s, %.3g mW mean, CV %.0f%%)\n", tr.Name, s.Duration, s.Mean*1e3, s.CV*100)
	fmt.Printf("seed     %d\n\n", run.Seed)

	writeResultTable(os.Stdout, localCells(spec, run.Results))
	return nil
}

// localCells shapes a local run's results like a remote run's cells, so
// both print through writeResultTable.
func localCells(spec *scenario.Spec, results []sim.Result) []service.CellStatus {
	cells := make([]service.CellStatus, len(results))
	for i, res := range results {
		cells[i] = service.CellStatus{Buffer: spec.Buffers[i].DisplayName(), Result: &service.CellResult{
			Latency: res.Latency, Duty: res.OnFraction(), Cycles: res.Cycles, Metrics: res.Metrics,
		}}
	}
	return cells
}

// writeResultTable prints one row per buffer; columns are the shared stats
// plus the union of workload metrics. A cell without a result prints as a
// "-" row.
func writeResultTable(w io.Writer, cells []service.CellStatus) {
	keySet := map[string]bool{}
	for _, cell := range cells {
		if cell.Result != nil {
			for k := range cell.Result.Metrics {
				keySet[k] = true
			}
		}
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%-14s %9s %7s %7s", "buffer", "latency", "duty%", "cycles")
	for _, k := range keys {
		fmt.Fprintf(w, " %10s", k)
	}
	fmt.Fprintln(w)
	for _, cell := range cells {
		if cell.Result == nil {
			fmt.Fprintf(w, "%-14s %9s\n", cell.Buffer, "-")
			continue
		}
		r := cell.Result
		lat := "-"
		if r.Latency >= 0 {
			lat = fmt.Sprintf("%.2f", r.Latency)
		}
		fmt.Fprintf(w, "%-14s %9s %7.1f %7d", cell.Buffer, lat, r.Duty*100, r.Cycles)
		for _, k := range keys {
			fmt.Fprintf(w, " %10.0f", r.Metrics[k])
		}
		fmt.Fprintln(w)
	}
}

func validateNames(buf, bench string) error {
	ok := false
	for _, b := range scenario.PresetBuffers {
		if b == buf {
			ok = true
		}
	}
	if !ok {
		return fmt.Errorf("unknown buffer %q (want %v)", buf, scenario.PresetBuffers)
	}
	for _, b := range scenario.PaperBenchmarks {
		if b == bench {
			return nil
		}
	}
	return fmt.Errorf("unknown benchmark %q (want %v)", bench, scenario.PaperBenchmarks)
}

// sweepSeeds runs the one-cell spec once per seed in 1..n over the
// experiment engine's worker pool and prints each metric's mean ± standard
// deviation, plus latency and duty-cycle aggregates.
func sweepSeeds(traceName, traceFile, bufName, bench string, n int, dt float64) error {
	spec, err := cellSpec(traceName, traceFile, bufName, bench)
	if err != nil {
		return err
	}
	results, err := runner.Sweep(context.Background(), nil, runner.Seeds(n),
		func(_ context.Context, seed uint64) (sim.Result, error) {
			return spec.Cell(0, scenario.RunOptions{Seed: seed, DT: dt})
		})
	if err != nil {
		return err
	}

	label := traceName
	if traceFile != "" {
		label = traceFile
	}
	fmt.Printf("sweep    %s / %s / %s over %d seeds\n", label, bufName, bench, n)
	printSeedSummary(scenario.AggregateSeeds(results))
	return nil
}

// printSeedSummary reports one cell's across-seed statistics — the shared
// scenario.AggregateSeeds shape, which remote sweeps also report, so local
// and remote sweep output agree to the last digit.
func printSeedSummary(agg scenario.SeedSummary) {
	// Latency statistics cover only the runs that started: -1 is the
	// "never reached the enable voltage" sentinel, not a time.
	if agg.Started == 0 {
		fmt.Printf("latency  never started (0/%d seeds)\n", agg.Seeds)
	} else {
		fmt.Printf("latency  %.2f ± %.2f s (started %d/%d seeds)\n", agg.Latency.Mean, agg.Latency.Std, agg.Started, agg.Seeds)
	}
	fmt.Printf("duty     %.1f ± %.1f %%\n", agg.Duty.Mean*100, agg.Duty.Std*100)
	keys := make([]string, 0, len(agg.Metrics))
	for k := range agg.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("metric   %-10s %.1f ± %.1f\n", k, agg.Metrics[k].Mean, agg.Metrics[k].Std)
	}
}

// runRemote targets a reactd daemon: a scenario run becomes POST /runs and
// -seeds n becomes POST /sweeps over seeds 1..n.
func runRemote(addr, name, file string, seed uint64, dt float64, seeds int, jsonOut bool) error {
	var inline json.RawMessage
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		// Validate locally for a friendly error before shipping the bytes.
		if _, err := scenario.ParseSpec(data); err != nil {
			return err
		}
		inline = data
		name = ""
	}
	ctx := context.Background()
	client, err := service.DialContext(ctx, addr)
	if err != nil {
		return err
	}

	if seeds > 1 {
		return runRemoteSweep(ctx, client, name, inline, dt, seeds, jsonOut)
	}

	st, err := client.Run(ctx, service.RunRequest{Scenario: name, Spec: inline, Seed: seed, DT: dt})
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	disposition := "simulated"
	if st.Cached {
		disposition = "served from cache"
	} else if st.Coalesced {
		disposition = "coalesced with in-flight work"
	}
	fmt.Printf("scenario %s (remote %s, %s)\n", st.Scenario, st.ID, disposition)
	fmt.Printf("seed     %d\n\n", st.Seed)

	writeResultTable(os.Stdout, st.Cells)
	return nil
}

// runRemoteSweep submits a daemon-side seed sweep and prints the
// per-buffer seed summaries.
func runRemoteSweep(ctx context.Context, client *service.Client, name string, inline json.RawMessage, dt float64, seeds int, jsonOut bool) error {
	req := service.SweepRequest{Scenario: name, Spec: inline, SeedFrom: 1, SeedTo: uint64(seeds)}
	if dt > 0 {
		req.DTs = []float64{dt}
	}
	st, err := client.Sweep(ctx, req)
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	fmt.Printf("sweep    %s over seeds 1..%d (remote %s: %d cached, %d coalesced, %d simulated)\n",
		st.Scenario, seeds, st.ID, st.CachedCells, st.CoalescedCells, st.NewCells)
	for _, row := range st.Summary {
		fmt.Printf("\nbuffer   %s (dt %g s)\n", row.Buffer, row.DT)
		printSeedSummary(row.SeedSummary)
	}
	return nil
}

// checkModeConflicts rejects flag combinations that would otherwise
// resolve by silent precedence: two run modes at once, a goal without an
// exploration, or both seed forms.
func checkModeConflicts(explicit map[string]bool) error {
	var set []string
	for _, f := range []string{"list", "scenario", "scenario-file", "explore"} {
		if explicit[f] {
			set = append(set, "-"+f)
		}
	}
	if len(set) > 1 {
		return fmt.Errorf("%s are mutually exclusive: pick one mode", strings.Join(set, " and "))
	}
	if explicit["target"] && !explicit["explore"] {
		return fmt.Errorf("-target needs -explore (it sets the exploration's metric goal)")
	}
	if explicit["seed"] && explicit["seeds"] {
		return fmt.Errorf("set -seed or -seeds, not both")
	}
	if explicit["seeds"] && (explicit["scenario"] || explicit["scenario-file"]) && !explicit["remote"] {
		return fmt.Errorf("-seeds does not apply to local scenario runs (scenarios define their own seed; use -remote for a daemon-side seed sweep)")
	}
	if explicit["seeds"] && explicit["explore"] {
		return fmt.Errorf("-seeds does not apply to explorations (the space file's seeds/seed_from/seed_to define the axis)")
	}
	if explicit["remote"] && explicit["list"] {
		return fmt.Errorf("-list prints the local registry; list a daemon's with GET /scenarios (curl <addr>/scenarios)")
	}
	return nil
}

// parseTarget parses a -target goal: "metric<=value", "metric>=value", or
// "metric=value" (shorthand for a ceiling).
func parseTarget(s string) (*explore.Target, error) {
	for _, op := range []string{"<=", ">=", "="} {
		i := strings.Index(s, op)
		if i < 0 {
			continue
		}
		if i == 0 {
			break // no metric name before the comparison
		}
		v, err := strconv.ParseFloat(s[i+len(op):], 64)
		if err != nil {
			return nil, fmt.Errorf("bad -target value in %q: %w", s, err)
		}
		t := &explore.Target{Metric: s[:i]}
		if op == ">=" {
			t.Min = &v
		} else {
			t.Max = &v
		}
		return t, nil
	}
	return nil, fmt.Errorf(`bad -target %q (want "metric<=value" or "metric>=value")`, s)
}

// runExplore loads a space file, applies the -target override, and runs
// the exploration locally (over the experiment engine) or against a
// reactd daemon. The remote result is bit-identical to the local one for
// the same space — both paths print through printExploreResult.
func runExplore(path, targetStr, remote string, workers int, jsonOut bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sp, err := explore.ParseSpace(data)
	if err != nil {
		return err
	}
	if targetStr != "" {
		var tgt *explore.Target
		if tgt, err = parseTarget(targetStr); err != nil {
			return err
		}
		sp.Target = tgt
		if sp.Strategy == "" {
			sp.Strategy = explore.StrategyBisect
		}
		// Revalidate with the new goal and strategy in place.
		if _, err = sp.Resolve(); err != nil {
			return err
		}
	}
	ctx := context.Background()

	var res *explore.Result
	if remote != "" {
		res, err = exploreRemote(ctx, remote, sp, jsonOut)
	} else {
		res, err = explore.Run(ctx, sp, explore.Local(workers))
	}
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	printExploreResult(res)
	return nil
}

// exploreRemote ships the space to a reactd daemon and returns its
// result (bit-identical to the local path for the same space).
func exploreRemote(ctx context.Context, remote string, sp *explore.Space, jsonOut bool) (*explore.Result, error) {
	client, err := service.DialContext(ctx, remote)
	if err != nil {
		return nil, err
	}
	st, err := client.Explore(ctx, sp)
	if err != nil {
		return nil, err
	}
	if !jsonOut {
		fmt.Printf("remote   %s: %d cached, %d coalesced, %d simulated cells\n",
			st.ID, st.CachedCells, st.CoalescedCells, st.NewCells)
	}
	return st.Result, nil
}

// printExploreResult renders the shared human-readable exploration report:
// one row per evaluated point, then the bisection/scan outcomes and the
// Pareto frontiers (frontier membership is starred in the table).
func printExploreResult(res *explore.Result) {
	fmt.Printf("explore  %s — %s over %d points × %d seed(s), %d evaluated\n",
		res.Scenario, res.Strategy, len(res.Points), len(res.Seeds), res.Evaluated)

	// Columns: the shared objectives plus the union of workload metrics.
	builtin := map[string]bool{
		explore.MetricLatency: true, explore.MetricDuty: true,
		explore.MetricDead: true, explore.MetricEfficiency: true,
	}
	keySet := map[string]bool{}
	params := map[string]bool{}
	for _, pr := range res.Points {
		for k := range pr.Metrics {
			if !builtin[k] {
				keySet[k] = true
			}
		}
		for p := range pr.Params {
			params[p] = true
		}
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	paths := make([]string, 0, len(params))
	for p := range params {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	onFrontier := map[int]bool{}
	for _, f := range res.Frontiers {
		for _, pi := range f.Points {
			onFrontier[pi] = true
		}
	}

	fmt.Printf("\n%5s %-12s %8s", "point", "buffer", "dt")
	for _, p := range paths {
		fmt.Printf(" %12s", p[strings.LastIndex(p, "/")+1:])
	}
	fmt.Printf(" %9s %6s %6s %5s", "latency", "duty%", "dead%", "eff%")
	for _, k := range keys {
		fmt.Printf(" %10s", k)
	}
	fmt.Println()
	for i, pr := range res.Points {
		if !pr.Evaluated {
			continue
		}
		mark := " "
		if onFrontier[i] {
			mark = "*"
		}
		fmt.Printf("%4d%s %-12s %8g", i, mark, pr.Buffer, pr.DT)
		for _, p := range paths {
			fmt.Printf(" %12g", pr.Params[p])
		}
		lat := "-"
		if v, ok := pr.Metrics[explore.MetricLatency]; ok {
			lat = fmt.Sprintf("%.2f", v)
		}
		fmt.Printf(" %9s %6.1f %6.1f %5.1f", lat,
			pr.Metrics[explore.MetricDuty]*100, pr.Metrics[explore.MetricDead]*100,
			pr.Metrics[explore.MetricEfficiency]*100)
		for _, k := range keys {
			fmt.Printf(" %10.1f", pr.Metrics[k])
		}
		fmt.Println()
	}

	if res.Target != nil {
		for _, b := range res.Best {
			group := ""
			if len(res.Best) > 1 {
				group = fmt.Sprintf(" [dt %g", b.DT)
				for _, p := range paths {
					group += fmt.Sprintf(" %s=%g", p[strings.LastIndex(p, "/")+1:], b.Params[p])
				}
				group += "]"
			}
			if b.Satisfied {
				pt := res.Points[b.Point]
				size := pt.Buffer
				if pt.C > 0 {
					size = fmt.Sprintf("%s (%.4g F)", pt.Buffer, pt.C)
				}
				fmt.Printf("\ntarget   %s%s: minimal design %s at point %d (%d point(s) probed)\n",
					res.Target, group, size, b.Point, b.Evaluations)
			} else {
				fmt.Printf("\ntarget   %s%s: not satisfiable on the axis (%d point(s) probed)\n",
					res.Target, group, b.Evaluations)
			}
		}
	}
	for _, f := range res.Frontiers {
		fmt.Printf("\nfrontier %s vs %s (%d of %d evaluated points):",
			f.X, f.Y, len(f.Points), res.Evaluated)
		for _, pi := range f.Points {
			fmt.Printf(" %d", pi)
		}
		fmt.Println()
	}
}
