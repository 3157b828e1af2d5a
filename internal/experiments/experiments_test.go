package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"react/internal/runner"
	"react/internal/sim"
	"react/internal/trace"
)

// TestCellEnergyConservation verifies the full-stack energy ledger balances
// for one cell of every buffer design.
func TestCellEnergyConservation(t *testing.T) {
	tr := trace.RFCart(1)
	for _, buf := range BufferNames {
		r, err := RunCell(tr, buf, "SC", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if e := r.EnergyBalanceError(); e > 1e-6 {
			t.Errorf("%s: energy balance error %g", buf, e)
		}
	}
}

// TestLatencyShape checks the Table 4 relationships on the RF Obstructed
// trace: REACT matches the smallest static buffer's latency, Morphy starts
// even sooner (smaller minimum configuration), larger statics are much
// slower, and the 17 mF buffer never starts at all.
func TestLatencyShape(t *testing.T) {
	tr := trace.RFObstructed(1)
	lat := map[string]float64{}
	for _, buf := range BufferNames {
		r, err := RunCell(tr, buf, "DE", Options{})
		if err != nil {
			t.Fatal(err)
		}
		lat[buf] = r.Latency
	}
	if lat["17 mF"] >= 0 {
		t.Errorf("17 mF should never start on RF Obstructed, latency %.1f", lat["17 mF"])
	}
	if math.Abs(lat["REACT"]-lat["770 µF"]) > 0.1*lat["770 µF"]+1 {
		t.Errorf("REACT latency %.2f should match the 770 µF buffer's %.2f", lat["REACT"], lat["770 µF"])
	}
	if lat["Morphy"] >= lat["REACT"] {
		t.Errorf("Morphy (250 µF minimum) should start before REACT: %.2f vs %.2f", lat["Morphy"], lat["REACT"])
	}
	if lat["10 mF"] < 5*lat["770 µF"] {
		t.Errorf("10 mF latency %.2f should dwarf the 770 µF buffer's %.2f", lat["10 mF"], lat["770 µF"])
	}
}

// TestSmallBufferWinsLowPower checks the §2.1.2 crossover: under weak input
// (RF Obstructed) the small static buffer outperforms the large ones on DE.
func TestSmallBufferWinsLowPower(t *testing.T) {
	tr := trace.RFObstructed(1)
	perf := map[string]float64{}
	for _, buf := range []string{"770 µF", "10 mF", "17 mF"} {
		r, err := RunCell(tr, buf, "DE", Options{})
		if err != nil {
			t.Fatal(err)
		}
		perf[buf] = Perf("DE", r)
	}
	if perf["770 µF"] <= perf["10 mF"] || perf["770 µF"] <= perf["17 mF"] {
		t.Errorf("small buffer should win at low power: %v", perf)
	}
}

// TestLargeBufferWinsHighPower checks the opposite crossover on the bursty
// RF Cart trace, and that REACT captures the bursts at least as well as the
// large statics despite its small-buffer latency.
func TestLargeBufferWinsHighPower(t *testing.T) {
	tr := trace.RFCart(1)
	perf := map[string]float64{}
	for _, buf := range BufferNames {
		r, err := RunCell(tr, buf, "DE", Options{})
		if err != nil {
			t.Fatal(err)
		}
		perf[buf] = Perf("DE", r)
	}
	if perf["17 mF"] <= perf["770 µF"] {
		t.Errorf("large buffer should win at high power: %v", perf)
	}
	if perf["REACT"] <= perf["770 µF"] {
		t.Errorf("REACT should beat the equally-reactive static buffer on bursts: %v", perf)
	}
}

// TestDoomedTransmissions checks §5.4: the 770 µF buffer cannot hold a full
// transmission, so it completes none (or almost none) on a weak trace while
// wasting energy on failed attempts; REACT's longevity guarantee avoids the
// doomed attempts entirely.
func TestDoomedTransmissions(t *testing.T) {
	tr := trace.RFObstructed(1)
	small, err := RunCell(tr, "770 µF", "RT", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if small.Metrics["tx"] > 2 {
		t.Errorf("770 µF should complete almost no transmissions, got %.0f", small.Metrics["tx"])
	}
	if small.Metrics["failed"] == 0 {
		t.Error("770 µF should waste energy on doomed transmissions")
	}
	react, err := RunCell(tr, "REACT", "RT", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if react.Metrics["tx"] < 5 {
		t.Errorf("REACT's longevity guarantee should enable transmissions, got %.0f", react.Metrics["tx"])
	}
	if react.Metrics["failed"] > react.Metrics["tx"]/2 {
		t.Errorf("REACT should rarely start a doomed transmission: %.0f failed of %.0f",
			react.Metrics["failed"], react.Metrics["tx"])
	}
}

// TestMorphySwitchingLossesVisible checks §5.5's mechanism: on a bursty
// trace Morphy dissipates far more in its switch fabric than REACT does.
func TestMorphySwitchingLossesVisible(t *testing.T) {
	tr := trace.RFCart(1)
	m, err := RunCell(tr, "Morphy", "RT", Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunCell(tr, "REACT", "RT", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Ledger.SwitchLoss < 3*r.Ledger.SwitchLoss {
		t.Errorf("Morphy switch loss %.4f J should dwarf REACT's %.4f J",
			m.Ledger.SwitchLoss, r.Ledger.SwitchLoss)
	}
}

// TestGridShape runs the full evaluation grid and checks the paper's
// headline claims hold in shape: REACT has the best mean figure of merit on
// every benchmark's aggregate, beats every other buffer overall, and keeps
// the small-buffer latency. Skipped in -short mode (it simulates 100 runs).
func TestGridShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid takes ~1 minute")
	}
	g, err := RunGrid(Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := ComputeFigure7(g)
	for _, buf := range []string{"770 µF", "10 mF", "17 mF", "Morphy"} {
		if f.Improvement[buf] <= 0 {
			t.Errorf("REACT should beat %s in aggregate, improvement %.1f%%", buf, f.Improvement[buf]*100)
		}
	}
	// The equally-reactive small buffer must lose by a wide margin.
	if f.Improvement["770 µF"] < 0.2 {
		t.Errorf("REACT's gain over 770 µF is only %.1f%% — paper reports ~39%%", f.Improvement["770 µF"]*100)
	}
	// Latency means: REACT ≈ 770 µF, both far ahead of the big statics.
	var reactLat, smallLat, bigLat float64
	n := 0
	for _, tr := range g.Traces {
		reactLat += g.At("DE", tr.Name, "REACT").Latency
		smallLat += g.At("DE", tr.Name, "770 µF").Latency
		if l := g.At("DE", tr.Name, "17 mF").Latency; l >= 0 {
			bigLat += l
			n++
		}
	}
	if reactLat > smallLat*1.1 {
		t.Errorf("REACT mean latency %.1f should track the 770 µF buffer's %.1f", reactLat/5, smallLat/5)
	}
	if bigLat/float64(n) < 3*reactLat/5 {
		t.Errorf("17 mF mean latency %.1f should be several times REACT's %.1f", bigLat/float64(n), reactLat/5)
	}
	// Tables must render without panicking and with one row per trace.
	for _, tbl := range []*Table{Table2(g), Table4(g), Table5(g), f.Table()} {
		if len(tbl.Rows) < len(g.Traces) {
			t.Errorf("table %q has %d rows", tbl.Title, len(tbl.Rows))
		}
		if tbl.String() == "" || tbl.CSV() == "" {
			t.Errorf("table %q renders empty", tbl.Title)
		}
	}
}

// TestRunnerGridMatchesSequentialCells runs a reduced grid (every evaluated
// buffer plus the extensions, over the short RF traces) through the shared
// runner and checks two properties of the engine port: every cell's energy
// ledger balances, and every cell is bit-identical to running the same
// RunCell sequentially — scheduling through the worker pool changes
// nothing about the results.
func TestRunnerGridMatchesSequentialCells(t *testing.T) {
	traces := []*trace.Trace{trace.RFCart(1), trace.RFObstructed(1)}
	buffers := ExtendedBufferNames
	opt := Options{}
	g, err := runner.RunGridBatched(context.Background(), &runner.Runner{Workers: 4},
		[]string{"RT"}, traces, buffers,
		func(_ context.Context, bench string, tr *trace.Trace, buffers []string) ([]sim.Result, error) {
			res := make([]sim.Result, len(buffers))
			for i, buf := range buffers {
				var err error
				if res[i], err = RunCell(tr, buf, bench, opt); err != nil {
					return nil, err
				}
			}
			return res, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	g.Each(func(bench string, tr *trace.Trace, buf string, r sim.Result) {
		if e := r.EnergyBalanceError(); e > 1e-6 {
			t.Errorf("%s/%s/%s: energy balance error %g", bench, tr.Name, buf, e)
		}
		want, err := RunCell(tr, buf, bench, opt)
		if err != nil {
			t.Fatal(err)
		}
		if r.Latency != want.Latency || r.OnTime != want.OnTime ||
			r.Duration != want.Duration || r.Cycles != want.Cycles ||
			r.Ledger != want.Ledger || r.Stored != want.Stored {
			t.Errorf("%s/%s/%s: runner result differs from sequential RunCell", bench, tr.Name, buf)
		}
		for k, v := range want.Metrics {
			if r.Metrics[k] != v {
				t.Errorf("%s/%s/%s: metric %s: %g != %g", bench, tr.Name, buf, k, r.Metrics[k], v)
			}
		}
	})
}

// TestBackgroundShape checks the §2.1 narration: the reactivity-longevity
// tradeoff and the night-time behaviour.
func TestBackgroundShape(t *testing.T) {
	bg, err := RunBackground(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bg.LatencyLarge < 8*bg.LatencySmall {
		t.Errorf("large buffer should charge >8x slower: %.1f vs %.1f", bg.LatencyLarge, bg.LatencySmall)
	}
	if bg.CycleLarge < 10*bg.CycleSmall {
		t.Errorf("large buffer cycles should be much longer: %.0f vs %.0f", bg.CycleLarge, bg.CycleSmall)
	}
	if bg.DutyLarge <= bg.DutySmall {
		t.Errorf("on the bursty trace the large buffer should be on more: %.2f vs %.2f", bg.DutyLarge, bg.DutySmall)
	}
	if bg.NightDuty1mF <= bg.NightDuty10mF {
		t.Errorf("at night the small buffer should win: %.3f vs %.3f", bg.NightDuty1mF, bg.NightDuty10mF)
	}
	if bg.NightStarted300mF {
		t.Error("the 300 mF buffer must never start at night")
	}
	if bg.EnergyAbove10mW < 0.5 {
		t.Errorf("most pedestrian-trace energy should arrive in spikes, got %.2f", bg.EnergyAbove10mW)
	}
	if bg.TimeBelow3mW < 0.6 {
		t.Errorf("most pedestrian-trace time should be low-power, got %.2f", bg.TimeBelow3mW)
	}
	if bg.Table().String() == "" {
		t.Error("background table renders empty")
	}
}

// TestOverheadCharacterization checks §5.1: the 1.8 % software penalty and
// the ~68 µW hardware draw.
func TestOverheadCharacterization(t *testing.T) {
	o, err := RunOverhead(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if o.SoftwarePenalty < 0.005 || o.SoftwarePenalty > 0.04 {
		t.Errorf("software penalty %.3f, paper reports 0.018", o.SoftwarePenalty)
	}
	if o.HardwareDrawW < 30e-6 || o.HardwareDrawW > 120e-6 {
		t.Errorf("hardware draw %.1f µW, paper reports 68 µW", o.HardwareDrawW*1e6)
	}
	if o.Table().String() == "" {
		t.Error("overhead table renders empty")
	}
}

// TestFigure1Series checks that the Figure 1 reproduction exhibits the
// plotted behaviour: the 1 mF line clips at its maximum voltage during
// bursts while the 300 mF line climbs slowly and never clips.
func TestFigure1Series(t *testing.T) {
	runs, err := Figure1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("want 2 runs, got %d", len(runs))
	}
	small, large := runs[0], runs[1]
	if small.Result.Cycles < 10*large.Result.Cycles {
		t.Errorf("1 mF should cycle far more often: %d vs %d", small.Result.Cycles, large.Result.Cycles)
	}
	if small.Result.Ledger.Clipped <= large.Result.Ledger.Clipped {
		t.Error("1 mF should clip more energy than 300 mF")
	}
	if len(small.Samples) == 0 || len(large.Samples) == 0 {
		t.Fatal("voltage series missing")
	}
	var peak float64
	for _, s := range large.Samples {
		if s.V > peak {
			peak = s.V
		}
	}
	if peak > 3.65 {
		t.Errorf("300 mF should stay within limits, peaked at %.2f V", peak)
	}
}

// TestFigure6Series checks the Figure 6 recording: four series, and REACT's
// capacitance actually varies over the run (the adaptive behaviour the
// figure illustrates).
func TestFigure6Series(t *testing.T) {
	series, err := Figure6(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("want 4 series, got %d", len(series))
	}
	minC, maxC := math.Inf(1), 0.0
	for _, s := range series["REACT"] {
		minC = math.Min(minC, s.C)
		maxC = math.Max(maxC, s.C)
	}
	if maxC <= minC {
		t.Errorf("REACT capacitance never varied: %g..%g", minC, maxC)
	}
	var b strings.Builder
	if err := WriteSeriesCSV(&b, "REACT", series["REACT"]); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "time_s,voltage_v") {
		t.Error("CSV header missing")
	}
}

func TestTable1Contents(t *testing.T) {
	tbl := Table1()
	s := tbl.String()
	for _, want := range []string{"770", "220", "440", "880", "5000", "18030"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, s)
		}
	}
}

func TestTable3Contents(t *testing.T) {
	tbl := Table3(1)
	if len(tbl.Rows) != 5 {
		t.Fatalf("want 5 traces, got %d", len(tbl.Rows))
	}
	s := tbl.String()
	for _, want := range []string{"RF Cart", "Solar Commute", "313", "6030"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 3 missing %q", want)
		}
	}
}

func TestTableCSVEscaping(t *testing.T) {
	tbl := &Table{Header: []string{"a", "b"}}
	tbl.AddRow(`va"l`, "x,y")
	csv := tbl.CSV()
	if !strings.Contains(csv, `"va""l"`) || !strings.Contains(csv, `"x,y"`) {
		t.Errorf("CSV escaping broken: %q", csv)
	}
}

// TestExtensionBuffersRun checks the related-work extension designs run
// end to end through the same harness and land between the worst and best
// of the paper's five on a representative cell.
func TestExtensionBuffersRun(t *testing.T) {
	tr := trace.RFCart(1)
	perf := map[string]float64{}
	for _, buf := range []string{"770 µF", "Capybara", "Dewdrop", "REACT"} {
		r, err := RunCell(tr, buf, "RT", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if e := r.EnergyBalanceError(); e > 1e-6 {
			t.Errorf("%s: energy balance error %g", buf, e)
		}
		perf[buf] = Perf("RT", r)
	}
	if perf["Dewdrop"] <= perf["770 µF"] {
		t.Errorf("task-matched wake-up should beat the blind small static: %v", perf)
	}
	if perf["Capybara"] <= perf["770 µF"] {
		t.Errorf("federated reserves should beat the lone static: %v", perf)
	}
}

// TestREACTBeatsCapybaraOnThroughput: on compute-bound work over a bursty
// trace, REACT's lossless in-place reconfiguration beats the discrete-bank
// array (which waits on half-charged reserves before expanding).
func TestREACTBeatsCapybaraOnThroughput(t *testing.T) {
	tr := trace.RFCart(1)
	capy, err := RunCell(tr, "Capybara", "DE", Options{})
	if err != nil {
		t.Fatal(err)
	}
	re, err := RunCell(tr, "REACT", "DE", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if Perf("DE", re) <= Perf("DE", capy) {
		t.Errorf("REACT %g should beat Capybara %g on DE/RF Cart", Perf("DE", re), Perf("DE", capy))
	}
}
