package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"react/internal/scenario"
	"react/internal/sim"
	"react/internal/trace"
)

// runRegistered runs every buffer of the named scenario and rebuilds the
// trace the run replayed, for the analyses that also read the trace.
func runRegistered(name string, opt scenario.RunOptions) (*scenario.Run, *trace.Trace, error) {
	sp, err := lookup(name)
	if err != nil {
		return nil, nil, err
	}
	run, err := sp.Run(context.Background(), nil, opt)
	if err != nil {
		return nil, nil, err
	}
	tr, err := sp.Trace.Build(run.Seed)
	if err != nil {
		return nil, nil, err
	}
	return run, tr, nil
}

// Figure1 reproduces the paper's Figure 1 from the background-pedestrian
// scenario: a 1 mF and a 300 mF static buffer on the pedestrian solar
// trace. Each result carries its buffer label and its voltage/on-time
// series, recorded once a second.
func Figure1(opt scenario.RunOptions) ([]sim.Result, error) {
	opt.RecordDT = 1
	run, _, err := runRegistered("background-pedestrian", opt)
	if err != nil {
		return nil, err
	}
	return run.Results, nil
}

// Background reproduces the quantitative claims woven through §2.1: the
// reactivity/longevity/efficiency profile of small vs large static buffers
// on the pedestrian trace, the spike statistics, and the night-time duty
// cycles.
type Background struct {
	// Pedestrian-trace facts (paper: 1 mF charges ≈8× sooner; mean cycle
	// 10 s vs 880 s; duty 27 % vs 49 %).
	LatencySmall, LatencyLarge float64
	CycleSmall, CycleLarge     float64
	DutySmall, DutyLarge       float64
	// Trace shape (paper: 82 % of energy above 10 mW, 77 % of time below
	// 3 mW).
	EnergyAbove10mW, TimeBelow3mW float64
	// Night duty cycles (paper: 5.7 % for 1 mF vs 3.3 % for 10 mF; the
	// 300 mF system never starts).
	NightDuty1mF, NightDuty10mF float64
	NightStarted300mF           bool
}

// RunBackground computes the §2.1 analysis from the background-pedestrian
// and background-night scenarios.
func RunBackground(opt scenario.RunOptions) (Background, error) {
	var bg Background
	ped, pedTr, err := runRegistered("background-pedestrian", opt)
	if err != nil {
		return bg, err
	}
	night, nightTr, err := runRegistered("background-night", opt)
	if err != nil {
		return bg, err
	}
	bg.EnergyAbove10mW = pedTr.EnergyFractionAbove(10e-3)
	bg.TimeBelow3mW = pedTr.TimeFractionBelow(3e-3)

	// Buffers in registration order: 1 mF and 300 mF on the pedestrian
	// trace, 1, 10 and 300 mF at night.
	small, large := ped.Results[0], ped.Results[1]
	bg.LatencySmall, bg.LatencyLarge = small.Latency, large.Latency
	bg.CycleSmall, bg.CycleLarge = small.MeanCycle, large.MeanCycle
	bg.DutySmall = small.OnTime / pedTr.Duration()
	bg.DutyLarge = large.OnTime / pedTr.Duration()
	bg.NightDuty1mF = night.Results[0].OnTime / nightTr.Duration()
	bg.NightDuty10mF = night.Results[1].OnTime / nightTr.Duration()
	bg.NightStarted300mF = night.Results[2].Latency >= 0
	return bg, nil
}

// Table renders the background analysis against the paper's claims.
func (bg Background) Table() *Table {
	t := &Table{
		Title:  "§2.1 background analysis: static buffer behaviour on the pedestrian solar trace",
		Header: []string{"Quantity", "Reproduced", "Paper"},
	}
	t.AddRow("charge-time ratio (large/small)", fmt.Sprintf("%.1fx", bg.LatencyLarge/bg.LatencySmall), ">8x")
	t.AddRow("mean power cycle, 1 mF", fmt.Sprintf("%.0f s", bg.CycleSmall), "10 s")
	t.AddRow("mean power cycle, 300 mF", fmt.Sprintf("%.0f s", bg.CycleLarge), "880 s")
	t.AddRow("duty cycle, 1 mF", fmt.Sprintf("%.0f%%", bg.DutySmall*100), "27%")
	t.AddRow("duty cycle, 300 mF", fmt.Sprintf("%.0f%%", bg.DutyLarge*100), "49%")
	t.AddRow("energy arriving above 10 mW", fmt.Sprintf("%.0f%%", bg.EnergyAbove10mW*100), "82%")
	t.AddRow("time spent below 3 mW", fmt.Sprintf("%.0f%%", bg.TimeBelow3mW*100), "77%")
	t.AddRow("night duty cycle, 1 mF", fmt.Sprintf("%.1f%%", bg.NightDuty1mF*100), "5.7%")
	t.AddRow("night duty cycle, 10 mF", fmt.Sprintf("%.1f%%", bg.NightDuty10mF*100), "3.3%")
	started := "never starts"
	if bg.NightStarted300mF {
		started = "starts (!)"
	}
	t.AddRow("night behaviour, 300 mF", started, "never starts")
	return t
}

// Figure6 reproduces the paper's Figure 6: buffer voltage and on-time for
// the SC benchmark under the RF Mobile trace, for the 770 µF and 10 mF
// statics, Morphy, and REACT — those buffers of paper-sc-rf-mobile,
// recorded every 0.5 s unless opt sets another interval.
func Figure6(opt scenario.RunOptions) (map[string][]sim.Sample, error) {
	sp, err := lookup(scenario.PaperName("SC", "RF Mobile"))
	if err != nil {
		return nil, err
	}
	buffers := []string{"770 µF", "10 mF", "Morphy", "REACT"}
	if err = selectBuffers(sp, buffers); err != nil {
		return nil, err
	}
	if opt.RecordDT == 0 {
		opt.RecordDT = 0.5
	}
	run, err := sp.Run(context.Background(), nil, opt)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]sim.Sample, len(buffers))
	for i, buf := range buffers {
		out[buf] = run.Results[i].Samples
	}
	return out, nil
}

// WriteSeriesCSV writes recorded samples as CSV with one series per column
// set: time, voltage, on, capacitance, power.
func WriteSeriesCSV(w io.Writer, label string, samples []sim.Sample) error {
	if _, err := fmt.Fprintf(w, "# %s\ntime_s,voltage_v,on,capacitance_f,power_w\n", label); err != nil {
		return err
	}
	for _, s := range samples {
		on := "0"
		if s.On {
			on = "1"
		}
		_, err := fmt.Fprintf(w, "%s,%s,%s,%s,%s\n",
			strconv.FormatFloat(s.T, 'g', -1, 64),
			strconv.FormatFloat(s.V, 'g', 6, 64),
			on,
			strconv.FormatFloat(s.C, 'g', 6, 64),
			strconv.FormatFloat(s.P, 'g', 6, 64))
		if err != nil {
			return err
		}
	}
	return nil
}

// Overhead reproduces the §5.1 characterization: REACT's software polling
// penalty on compute-bound work and its hardware power draw.
type Overhead struct {
	// SoftwarePenalty is the relative DE-throughput loss from the 10 Hz
	// poll (paper: 1.8 %).
	SoftwarePenalty float64
	// HardwareDrawW is the management power measured while running with
	// every bank engaged (paper: ≈68 µW total, ≈14 µW/bank).
	HardwareDrawW float64
	// PerBankW is HardwareDrawW divided by the bank count.
	PerBankW float64
}

// RunOverhead measures the overheads on steady power, the way §5.1 does
// (DE benchmark, constant 10 mW supply, five minutes): the react-overhead
// scenario runs REACT with its poll and with the poll's overhead removed.
func RunOverhead(opt scenario.RunOptions) (Overhead, error) {
	run, _, err := runRegistered("react-overhead", opt)
	if err != nil {
		return Overhead{}, err
	}
	withPoll, noPoll := run.Results[0], run.Results[1]

	var o Overhead
	if n := noPoll.Metrics["blocks"]; n > 0 {
		o.SoftwarePenalty = 1 - withPoll.Metrics["blocks"]/n
	}
	if withPoll.OnTime > 0 {
		o.HardwareDrawW = withPoll.Ledger.Overhead / withPoll.OnTime
	}
	o.PerBankW = o.HardwareDrawW / float64(len(scenario.ReactSpec{}.Config().Banks))
	return o, nil
}

// Table renders the overhead characterization against the paper's §5.1
// measurements.
func (o Overhead) Table() *Table {
	t := &Table{
		Title:  "§5.1 overhead characterization (DE benchmark, steady power)",
		Header: []string{"Quantity", "Reproduced", "Paper"},
	}
	t.AddRow("software polling penalty", fmt.Sprintf("%.1f%%", o.SoftwarePenalty*100), "1.8%")
	t.AddRow("hardware power draw", fmt.Sprintf("%.0f µW", o.HardwareDrawW*1e6), "68 µW")
	t.AddRow("per-bank draw", fmt.Sprintf("%.0f µW", o.PerBankW*1e6), "~14 µW")
	return t
}
