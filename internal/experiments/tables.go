package experiments

import (
	"fmt"

	"react/internal/scenario"
	"react/internal/trace"
)

// Table1 reports the REACT implementation's bank configuration — the
// paper's Table 1.
func Table1() *Table {
	cfg := scenario.ReactSpec{}.Config()
	t := &Table{
		Title:  "Table 1: REACT bank sizes and configurations (bank 0 is the last-level buffer)",
		Header: []string{"Bank", "Capacitor Size (µF)", "Capacitor Count"},
	}
	t.AddRow("0", fmt.Sprintf("%.0f", cfg.LLB.C*1e6), "1")
	for i, b := range cfg.Banks {
		t.AddRow(fmt.Sprintf("%d", i+1), fmt.Sprintf("%.0f", b.UnitC*1e6), fmt.Sprintf("%d", b.N))
	}
	t.AddRow("range", fmt.Sprintf("%.0f–%.0f", cfg.LLB.C*1e6, cfg.MaxCapacitance()*1e6), "")
	return t
}

// Table3 reports the synthetic evaluation traces' statistics — the paper's
// Table 3.
func Table3(seed uint64) *Table {
	t := &Table{
		Title:  "Table 3: power trace details",
		Header: []string{"Trace", "Time (s)", "Avg. Pow. (mW)", "Power CV"},
	}
	for _, tr := range trace.Evaluation(seed) {
		s := tr.Stats()
		t.AddRow(tr.Name,
			fmt.Sprintf("%.0f", s.Duration),
			fmt.Sprintf("%.3g", s.Mean*1e3),
			fmt.Sprintf("%.0f%%", s.CV*100))
	}
	return t
}

// Table4 reports system latency (time to first enable) across traces and
// buffers — the paper's Table 4. A dash marks systems that never start.
func Table4(g *Grid) *Table {
	t := &Table{
		Title:  "Table 4: system latency (seconds) across traces and energy buffers",
		Header: append([]string{"Trace"}, BufferNames...),
	}
	// Latency is workload-invariant (charge physics only); use DE runs.
	sumRatio, nRatio := 0.0, 0
	for _, tr := range g.Traces {
		row := []string{tr.Name}
		var reactLat float64
		for _, buf := range BufferNames {
			r := g.At("DE", tr.Name, buf)
			if r.Latency < 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.2f", r.Latency))
			if buf == "REACT" {
				reactLat = r.Latency
			}
		}
		if r := g.At("DE", tr.Name, "17 mF"); r.Latency > 0 && reactLat > 0 {
			sumRatio += r.Latency / reactLat
			nRatio++
		}
		t.AddRow(row...)
	}
	means := []string{"Mean"}
	for _, buf := range BufferNames {
		var sum float64
		n := 0
		for _, tr := range g.Traces {
			r := g.At("DE", tr.Name, buf)
			if r.Latency >= 0 {
				sum += r.Latency
				n++
			}
		}
		if n == 0 {
			means = append(means, "-")
		} else {
			means = append(means, fmt.Sprintf("%.2f", sum/float64(n)))
		}
	}
	t.AddRow(means...)
	if nRatio > 0 {
		t.Title += fmt.Sprintf("\n(REACT is %.1fx faster to start than the equal-capacity 17 mF buffer, paper: 7.7x)", sumRatio/float64(nRatio))
	}
	return t
}

// Table2 reports DE, SC and RT benchmark performance across traces and
// buffers — the paper's Table 2. Values are completed blocks (DE),
// successful samples (SC), and successful transmissions (RT).
func Table2(g *Grid) *Table {
	t := &Table{
		Title:  "Table 2: performance on the DE, SC, and RT benchmarks across traces and energy buffers",
		Header: []string{"Trace"},
	}
	benches := []string{"DE", "SC", "RT"}
	for _, bench := range benches {
		for _, buf := range BufferNames {
			t.Header = append(t.Header, bench+" "+buf)
		}
	}
	for _, tr := range g.Traces {
		row := []string{tr.Name}
		for _, bench := range benches {
			for _, buf := range BufferNames {
				row = append(row, fmt.Sprintf("%.0f", Perf(bench, g.At(bench, tr.Name, buf))))
			}
		}
		t.AddRow(row...)
	}
	means := []string{"Mean"}
	for _, bench := range benches {
		for _, buf := range BufferNames {
			var sum float64
			for _, tr := range g.Traces {
				sum += Perf(bench, g.At(bench, tr.Name, buf))
			}
			means = append(means, fmt.Sprintf("%.0f", sum/float64(len(g.Traces))))
		}
	}
	t.AddRow(means...)
	return t
}

// Table5 reports the Packet Forwarding benchmark — the paper's Table 5:
// packets successfully received and retransmitted.
func Table5(g *Grid) *Table {
	t := &Table{
		Title:  "Table 5: packets received and retransmitted during the PF benchmark",
		Header: []string{"Trace"},
	}
	for _, buf := range BufferNames {
		t.Header = append(t.Header, buf+" Rx", buf+" Tx")
	}
	for _, tr := range g.Traces {
		row := []string{tr.Name}
		for _, buf := range BufferNames {
			r := g.At("PF", tr.Name, buf)
			row = append(row, fmt.Sprintf("%.0f", r.Metrics["rx"]), fmt.Sprintf("%.0f", r.Metrics["tx"]))
		}
		t.AddRow(row...)
	}
	means := []string{"Mean"}
	for _, buf := range BufferNames {
		var rx, tx float64
		for _, tr := range g.Traces {
			r := g.At("PF", tr.Name, buf)
			rx += r.Metrics["rx"]
			tx += r.Metrics["tx"]
		}
		n := float64(len(g.Traces))
		means = append(means, fmt.Sprintf("%.0f", rx/n), fmt.Sprintf("%.0f", tx/n))
	}
	t.AddRow(means...)
	return t
}

// Figure7 computes mean benchmark performance normalized to REACT — the
// paper's Figure 7 — and the aggregate improvement headline numbers.
type Figure7 struct {
	// Normalized[bench][buffer] is mean-across-traces performance divided
	// by REACT's.
	Normalized map[string]map[string]float64
	// Improvement[buffer] is REACT's aggregate gain over that buffer,
	// averaged across benchmarks (paper: +39.1 % over 770 µF, +18.8 % over
	// 10 mF, +19.3 % over 17 mF, +26.2 % over Morphy).
	Improvement map[string]float64
}

// ComputeFigure7 evaluates the figure from a completed grid.
func ComputeFigure7(g *Grid) Figure7 {
	f := Figure7{
		Normalized:  map[string]map[string]float64{},
		Improvement: map[string]float64{},
	}
	for _, bench := range BenchmarkNames {
		f.Normalized[bench] = map[string]float64{}
		var reactMean float64
		for _, tr := range g.Traces {
			reactMean += Perf(bench, g.At(bench, tr.Name, "REACT"))
		}
		reactMean /= float64(len(g.Traces))
		for _, buf := range BufferNames {
			var mean float64
			for _, tr := range g.Traces {
				mean += Perf(bench, g.At(bench, tr.Name, buf))
			}
			mean /= float64(len(g.Traces))
			if reactMean > 0 {
				f.Normalized[bench][buf] = mean / reactMean
			}
		}
	}
	for _, buf := range BufferNames {
		if buf == "REACT" {
			continue
		}
		var sum float64
		n := 0
		for _, bench := range BenchmarkNames {
			if norm := f.Normalized[bench][buf]; norm > 0 {
				sum += 1/norm - 1
				n++
			}
		}
		if n > 0 {
			f.Improvement[buf] = sum / float64(n)
		}
	}
	return f
}

// Table reports the figure as a table (rows = benchmarks plus the mean).
func (f Figure7) Table() *Table {
	t := &Table{
		Title:  "Figure 7: mean benchmark performance normalized to REACT",
		Header: append([]string{"Benchmark"}, BufferNames...),
	}
	agg := map[string]float64{}
	for _, bench := range BenchmarkNames {
		row := []string{bench}
		for _, buf := range BufferNames {
			v := f.Normalized[bench][buf]
			agg[buf] += v
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		t.AddRow(row...)
	}
	row := []string{"Mean"}
	for _, buf := range BufferNames {
		row = append(row, fmt.Sprintf("%.3f", agg[buf]/float64(len(BenchmarkNames))))
	}
	t.AddRow(row...)
	for _, buf := range []string{"770 µF", "10 mF", "17 mF", "Morphy"} {
		t.Title += fmt.Sprintf("\nREACT vs %s: %+.1f%%", buf, f.Improvement[buf]*100)
	}
	return t
}
