// Benchmarks regenerating every table and figure in the paper's evaluation
// (see DESIGN.md's experiment index and EXPERIMENTS.md for the recorded
// outputs). Heavy benchmarks simulate full power traces, so each iteration
// is seconds long and `go test -bench=.` runs them once; the reported
// custom metrics are the table's headline values.
//
// Every multi-run benchmark schedules its simulations through the shared
// experiment engine (react.RunGrid / react.Sweep over internal/runner)
// rather than looping ad hoc, so the benchmarks exercise the same
// orchestration path as the experiments package and the cmd/ tools.
//
// Ablation benchmarks (A1–A4 in DESIGN.md) probe the design choices the
// paper calls out: ideal diodes vs Schottky isolation, controller poll
// rate, bank granularity, and integration timestep.
package react_test

import (
	"context"
	"testing"

	"react"
	"react/internal/experiments"
	"react/internal/trace"
)

// rfTraces returns the three short RF traces — enough for a representative
// benchmark iteration at a few seconds per run.
func rfTraces() []*react.Trace {
	return []*react.Trace{react.RFCart(1), react.RFObstructed(1), react.RFMobile(1)}
}

// runRow adapts the experiments cell factory to the engine's grid row
// signature: one benchmark × trace row, every buffer in axis order.
func runRow(_ context.Context, bench string, tr *react.Trace, buffers []string) ([]react.Result, error) {
	res := make([]react.Result, len(buffers))
	for i, buf := range buffers {
		var err error
		if res[i], err = experiments.RunCell(tr, buf, bench, experiments.Options{}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// benchTable2 runs one Table 2 benchmark column set over the RF traces and
// reports the REACT and static means.
func benchTable2(b *testing.B, bench string) {
	b.ReportAllocs()
	perf := func(r react.Result) float64 { return experiments.Perf(bench, r) }
	for i := 0; i < b.N; i++ {
		g, err := react.RunGrid(context.Background(), nil,
			[]string{bench}, rfTraces(), []string{"REACT", "770 µF", "17 mF"}, runRow)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(g.MeanOverTraces(bench, "REACT", perf), "react_"+bench)
		b.ReportMetric(g.MeanOverTraces(bench, "770 µF", perf), "static770u_"+bench)
		b.ReportMetric(g.MeanOverTraces(bench, "17 mF", perf), "static17m_"+bench)
	}
}

// BenchmarkTable2_DE regenerates the Data Encryption columns of Table 2.
func BenchmarkTable2_DE(b *testing.B) { benchTable2(b, "DE") }

// BenchmarkTable2_SC regenerates the Sense-and-Compute columns of Table 2.
func BenchmarkTable2_SC(b *testing.B) { benchTable2(b, "SC") }

// BenchmarkTable2_RT regenerates the Radio Transmission columns of Table 2.
func BenchmarkTable2_RT(b *testing.B) { benchTable2(b, "RT") }

// BenchmarkTable3_Traces regenerates Table 3: synthesizing the five
// evaluation traces and computing their statistics.
func BenchmarkTable3_Traces(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		traces := react.EvaluationTraces(uint64(i + 1))
		var cv float64
		for _, tr := range traces {
			cv += tr.Stats().CV
		}
		b.ReportMetric(cv/5, "mean_cv")
	}
}

// BenchmarkTable4_Latency regenerates the latency table on the RF traces
// and reports the REACT-vs-17 mF speedup (paper: 7.7x over all traces).
func BenchmarkTable4_Latency(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := react.RunGrid(context.Background(), nil,
			[]string{"DE"}, rfTraces(), []string{"REACT", "17 mF"}, runRow)
		if err != nil {
			b.Fatal(err)
		}
		var reactLat, bigLat float64
		n := 0
		for _, tr := range g.Traces {
			rr := g.At("DE", tr.Name, "REACT")
			rb := g.At("DE", tr.Name, "17 mF")
			if rr.Latency >= 0 && rb.Latency >= 0 {
				reactLat += rr.Latency
				bigLat += rb.Latency
				n++
			}
		}
		b.ReportMetric(reactLat/float64(n), "react_latency_s")
		b.ReportMetric(bigLat/reactLat, "speedup_vs_17mF")
	}
}

// BenchmarkTable5_PF regenerates the Packet Forwarding table on the RF
// traces.
func BenchmarkTable5_PF(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := react.Sweep(context.Background(), nil, rfTraces(),
			func(_ context.Context, tr *react.Trace) (react.Result, error) {
				return experiments.RunCell(tr, "REACT", "PF", experiments.Options{})
			})
		if err != nil {
			b.Fatal(err)
		}
		var rx, tx float64
		for _, r := range res {
			rx += r.Metrics["rx"]
			tx += r.Metrics["tx"]
		}
		b.ReportMetric(rx/3, "react_rx")
		b.ReportMetric(tx/3, "react_tx")
	}
}

// BenchmarkSeedSweep (ours) exercises the multi-seed Sweep path the engine
// opens beyond the paper's fixed grid: DE on five fresh RF Cart instances,
// reporting the across-seed mean and spread of the figure of merit.
func BenchmarkSeedSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blocks, err := react.Sweep(context.Background(), nil, react.SweepSeeds(5),
			func(_ context.Context, seed uint64) (float64, error) {
				r, err := experiments.RunCell(react.RFCart(seed), "REACT", "DE",
					experiments.Options{Seed: seed})
				if err != nil {
					return 0, err
				}
				return experiments.Perf("DE", r), nil
			})
		if err != nil {
			b.Fatal(err)
		}
		var sum, sumSq float64
		for _, v := range blocks {
			sum += v
			sumSq += v * v
		}
		mean := sum / float64(len(blocks))
		b.ReportMetric(mean, "blocks_mean")
		variance := sumSq/float64(len(blocks)) - mean*mean
		if variance < 0 {
			variance = 0 // rounding when the per-seed values coincide
		}
		b.ReportMetric(variance, "blocks_var")
	}
}

// BenchmarkFigure1 regenerates the Figure 1 static-buffer comparison on the
// pedestrian solar trace.
func BenchmarkFigure1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runs, err := experiments.Figure1(experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(runs[0].Result.Cycles), "cycles_1mF")
		b.ReportMetric(runs[1].Result.Latency/runs[0].Result.Latency, "charge_ratio")
	}
}

// BenchmarkFigure6 regenerates the Figure 6 voltage recordings (SC under
// RF Mobile, four buffers).
func BenchmarkFigure6(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure6(experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(series["REACT"])), "samples")
	}
}

// BenchmarkFigure7 regenerates the full evaluation grid (4 benchmarks ×
// 5 traces × 5 buffers) and reports the paper's headline improvements.
// One iteration takes about a minute.
func BenchmarkFigure7(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := experiments.RunGrid(experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		f := experiments.ComputeFigure7(g)
		b.ReportMetric(f.Improvement["770 µF"]*100, "gain_vs_770uF_pct")
		b.ReportMetric(f.Improvement["10 mF"]*100, "gain_vs_10mF_pct")
		b.ReportMetric(f.Improvement["17 mF"]*100, "gain_vs_17mF_pct")
		b.ReportMetric(f.Improvement["Morphy"]*100, "gain_vs_Morphy_pct")
	}
}

// BenchmarkBackgroundStats regenerates the §2.1 background analysis.
func BenchmarkBackgroundStats(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bg, err := experiments.RunBackground(experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bg.DutySmall*100, "duty_1mF_pct")
		b.ReportMetric(bg.DutyLarge*100, "duty_300mF_pct")
	}
}

// BenchmarkOverhead regenerates the §5.1 overhead characterization.
func BenchmarkOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o, err := experiments.RunOverhead(experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(o.SoftwarePenalty*100, "sw_penalty_pct")
		b.ReportMetric(o.HardwareDrawW*1e6, "hw_draw_uW")
	}
}

// BenchmarkSwitchingLoss measures the §3.3.1 worked example: the cost of
// computing one dissipative reconfiguration of a unified eight-capacitor
// array (E10 in DESIGN.md), and reports the loss fraction.
func BenchmarkSwitchingLoss(b *testing.B) {
	b.ReportAllocs()
	var frac float64
	for i := 0; i < b.N; i++ {
		m := react.NewMorphy(react.DefaultMorphyConfig())
		m.Harvest(0.5 * 250e-6 * 3.4 * 3.4)
		before := m.Stored()
		for m.Level() < m.MaxLevel() {
			m.Tick(0, 0.1, false)
			m.Harvest(1e-3) // keep it above V_high so the ladder climbs
		}
		frac = 1 - m.Stored()/(before+m.Ledger().Harvested-0.5*250e-6*3.4*3.4)
	}
	b.ReportMetric(frac*100, "loss_pct")
}

// BenchmarkBankSizing measures the Equation 1/2 computations (E11).
func BenchmarkBankSizing(b *testing.B) {
	b.ReportAllocs()
	var v float64
	for i := 0; i < b.N; i++ {
		v += react.VoltageAfterReclaim(3, 880e-6, 770e-6, 1.9)
		v += react.MaxUnitCapacitance(3, 770e-6, 1.9, 3.5)
	}
	b.ReportMetric(react.VoltageAfterReclaim(2, 5e-3, 770e-6, 1.9), "eq1_spike_v")
	_ = v
}

// BenchmarkReclamation measures the §3.3.4 charge-reclamation path: a full
// REACT contraction cascade from charged-parallel to disconnected (E12).
func BenchmarkReclamation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := react.NewREACT(react.DefaultConfig())
		// Charge fully with the device on so the controller expands.
		for tick := 0; buf.Level() < buf.MaxLevel() && tick < 400000; tick++ {
			buf.Harvest(40e-3 * 1e-3)
			buf.Tick(float64(tick)*1e-3, 1e-3, true)
		}
		// Drain with reclamation.
		for tick := 0; buf.Level() > 0 && tick < 4000000; tick++ {
			buf.Draw(8e-3 * 1e-3)
			buf.Tick(float64(tick)*1e-3, 1e-3, true)
		}
		b.ReportMetric(buf.Ledger().SwitchLoss*1e3, "switch_loss_mJ")
	}
}

// sweepBlocks runs one DE simulation per point through the engine and
// returns the completed-block counts in point order.
func sweepBlocks[P any](b *testing.B, points []P, cfg func(P) react.SimConfig) []float64 {
	b.Helper()
	blocks, err := react.Sweep(context.Background(), nil, points,
		func(_ context.Context, p P) (float64, error) {
			res, err := react.Run(cfg(p))
			if err != nil {
				return 0, err
			}
			return res.Metrics["blocks"], nil
		})
	if err != nil {
		b.Fatal(err)
	}
	return blocks
}

// BenchmarkAblationDiode (A1) compares REACT built with active ideal
// diodes against Schottky isolation diodes on the bursty RF Cart trace.
func BenchmarkAblationDiode(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blocks := sweepBlocks(b, []float64{0, 0.3}, func(drop float64) react.SimConfig {
			cfg := react.DefaultConfig()
			cfg.DiodeDrop = drop
			return react.SimConfig{
				Frontend: react.NewFrontend(react.RFCart(1), nil),
				Buffer:   react.NewREACT(cfg),
				Device:   react.NewDevice(react.DefaultProfile(), react.NewDataEncryption(0.6e-3)),
			}
		})
		ideal, schottky := blocks[0], blocks[1]
		b.ReportMetric(ideal, "blocks_ideal")
		b.ReportMetric(schottky, "blocks_schottky")
		b.ReportMetric((ideal/schottky-1)*100, "ideal_gain_pct")
	}
}

// BenchmarkAblationPollRate (A2) sweeps the controller polling rate.
func BenchmarkAblationPollRate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blocks := sweepBlocks(b, []float64{1, 10, 100}, func(hz float64) react.SimConfig {
			cfg := react.DefaultConfig()
			cfg.PollHz = hz
			// The paper's 1.8 % penalty is measured at 10 Hz; scale with rate.
			cfg.SoftwareOverhead = 0.018 * hz / 10
			return react.SimConfig{
				Frontend: react.NewFrontend(react.RFCart(1), nil),
				Buffer:   react.NewREACT(cfg),
				Device:   react.NewDevice(react.DefaultProfile(), react.NewDataEncryption(0.6e-3)),
			}
		})
		b.ReportMetric(blocks[0], "blocks_1Hz")
		b.ReportMetric(blocks[1], "blocks_10Hz")
		b.ReportMetric(blocks[2], "blocks_100Hz")
	}
}

// BenchmarkAblationBanks (A3) sweeps how finely the bank fabric is divided.
func BenchmarkAblationBanks(b *testing.B) {
	b.ReportAllocs()
	full := react.DefaultConfig().Banks
	// One big bank with the same total capacitance (2 × 8.63 mF).
	coarse := []react.BankSpec{{N: 2, UnitC: 8.63e-3, LeakI: 2e-6, VRated: 6.3}}
	for i := 0; i < b.N; i++ {
		blocks := sweepBlocks(b, [][]react.BankSpec{full, coarse}, func(banks []react.BankSpec) react.SimConfig {
			cfg := react.DefaultConfig()
			cfg.Banks = banks
			return react.SimConfig{
				Frontend: react.NewFrontend(react.RFCart(1), nil),
				Buffer:   react.NewREACT(cfg),
				Device:   react.NewDevice(react.DefaultProfile(), react.NewDataEncryption(0.6e-3)),
			}
		})
		b.ReportMetric(blocks[0], "blocks_5banks")
		b.ReportMetric(blocks[1], "blocks_1bank")
	}
}

// BenchmarkAblationTimestep (A4) checks result stability across integration
// timesteps (0.5 ms vs 2 ms vs the default 1 ms).
func BenchmarkAblationTimestep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blocks, err := react.Sweep(context.Background(), nil, []float64{0.5e-3, 1e-3, 2e-3},
			func(_ context.Context, dt float64) (float64, error) {
				r, err := experiments.RunCell(react.RFCart(1), "REACT", "DE", experiments.Options{DT: dt})
				if err != nil {
					return 0, err
				}
				return r.Metrics["blocks"], nil
			})
		if err != nil {
			b.Fatal(err)
		}
		fine, def, coarse := blocks[0], blocks[1], blocks[2]
		b.ReportMetric(def, "blocks_1ms")
		b.ReportMetric((fine/def-1)*100, "drift_0.5ms_pct")
		b.ReportMetric((coarse/def-1)*100, "drift_2ms_pct")
	}
}

// BenchmarkSimThroughput measures raw engine speed: simulated seconds per
// wall-clock second for a REACT buffer under load.
func BenchmarkSimThroughput(b *testing.B) {
	b.ReportAllocs()
	buf := react.NewREACT(react.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Harvest(5e-3 * 1e-3)
		buf.Draw(2e-3 * 1e-3)
		buf.Tick(float64(i)*1e-3, 1e-3, true)
	}
}

// BenchmarkTraceGeneration measures synthetic-trace synthesis speed.
func BenchmarkTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = trace.SolarCampus(uint64(i + 1))
	}
}

// BenchmarkExtensionCapybara (ours) compares the Capybara-style
// multiplexed static array (§2.3 related work) against REACT on the bursty
// RF Cart trace: discrete pre-provisioned banks versus a continuously
// reconfigurable fabric.
func BenchmarkExtensionCapybara(b *testing.B) {
	b.ReportAllocs()
	mk := []func() react.Buffer{
		func() react.Buffer { return react.NewCapybara(react.DefaultCapybaraConfig()) },
		func() react.Buffer { return react.NewREACT(react.DefaultConfig()) },
	}
	for i := 0; i < b.N; i++ {
		blocks := sweepBlocks(b, mk, func(newBuf func() react.Buffer) react.SimConfig {
			return react.SimConfig{
				Frontend: react.NewFrontend(react.RFCart(1), nil),
				Buffer:   newBuf(),
				Device:   react.NewDevice(react.DefaultProfile(), react.NewDataEncryption(0.6e-3)),
			}
		})
		capy, reactBlocks := blocks[0], blocks[1]
		b.ReportMetric(capy, "blocks_capybara")
		b.ReportMetric(reactBlocks, "blocks_react")
		b.ReportMetric((reactBlocks/capy-1)*100, "react_gain_pct")
	}
}

// BenchmarkExtensionTimekeeper (ours) measures the scheduling error the SC
// benchmark accumulates when deadlines survive power failures through a
// remanence timekeeper instead of a perfect external clock.
func BenchmarkExtensionTimekeeper(b *testing.B) {
	b.ReportAllocs()
	prof := react.DefaultProfile()
	mk := []func() react.Workload{
		func() react.Workload { return react.NewSenseCompute(prof.SleepI) },
		func() react.Workload {
			return react.NewSenseComputeWithTimekeeper(prof.SleepI, react.NewTimekeeper())
		},
	}
	for i := 0; i < b.N; i++ {
		res, err := react.Sweep(context.Background(), nil, mk,
			func(_ context.Context, newWL func() react.Workload) (react.Result, error) {
				return react.Run(react.SimConfig{
					Frontend: react.NewFrontend(react.RFMobile(1), nil),
					Buffer:   react.NewREACT(react.DefaultConfig()),
					Device:   react.NewDevice(prof, newWL()),
				})
			})
		if err != nil {
			b.Fatal(err)
		}
		perfect, remanence := res[0], res[1]
		b.ReportMetric(perfect.Metrics["samples"], "samples_perfect")
		b.ReportMetric(remanence.Metrics["samples"], "samples_remanence")
		b.ReportMetric(remanence.Metrics["timing_err_mean"], "timing_err_s")
	}
}

// BenchmarkAblationEnableVoltage (A5, ours) probes the Dewdrop idea the
// paper discusses in §2.4: lowering the enable voltage on a static buffer
// trades stored energy at wake-up for responsiveness — without escaping
// the size tradeoff.
func BenchmarkAblationEnableVoltage(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		samples, err := react.Sweep(context.Background(), nil, []float64{2.2, 3.3},
			func(_ context.Context, vEnable float64) (float64, error) {
				prof := react.DefaultProfile()
				prof.VEnable = vEnable
				res, err := react.Run(react.SimConfig{
					Frontend: react.NewFrontend(react.RFObstructed(1), nil),
					Buffer: react.NewStatic(react.StaticConfig{
						Name: "770 µF", C: 770e-6, VMax: 3.6, LeakI: 0.77e-6, VRated: 6.3,
					}),
					Device: react.NewDevice(prof, react.NewSenseCompute(prof.SleepI)),
				})
				if err != nil {
					return 0, err
				}
				return res.Metrics["samples"], nil
			})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(samples[0], "samples_enable2.2V")
		b.ReportMetric(samples[1], "samples_enable3.3V")
	}
}

// BenchmarkAblationLLB (A6, ours) sweeps REACT's last-level buffer size:
// the knob trading cold-start latency against the minimum work quantum.
func BenchmarkAblationLLB(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := react.Sweep(context.Background(), nil, []float64{330e-6, 770e-6, 2e-3},
			func(_ context.Context, llb float64) (react.Result, error) {
				cfg := react.DefaultConfig()
				cfg.LLB.C = llb
				return react.Run(react.SimConfig{
					Frontend: react.NewFrontend(react.RFMobile(1), nil),
					Buffer:   react.NewREACT(cfg),
					Device:   react.NewDevice(react.DefaultProfile(), react.NewDataEncryption(0.6e-3)),
				})
			})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res[0].Latency, "latency_330uF")
		b.ReportMetric(res[1].Latency, "latency_770uF")
		b.ReportMetric(res[2].Latency, "latency_2mF")
		b.ReportMetric(res[0].Metrics["blocks"], "blocks_330uF")
		b.ReportMetric(res[1].Metrics["blocks"], "blocks_770uF")
		b.ReportMetric(res[2].Metrics["blocks"], "blocks_2mF")
	}
}

// BenchmarkAblationThresholds (A7, ours) sweeps the undervoltage
// reclamation trigger V_low. Too close to the brownout voltage risks dying
// before reclaiming; too high reclaims early and wastes headroom.
func BenchmarkAblationThresholds(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx, err := react.Sweep(context.Background(), nil, []float64{1.85, 1.9, 2.2},
			func(_ context.Context, vLow float64) (float64, error) {
				cfg := react.DefaultConfig()
				cfg.VLow = vLow
				res, err := react.Run(react.SimConfig{
					Frontend: react.NewFrontend(react.RFCart(1), nil),
					Buffer:   react.NewREACT(cfg),
					Device:   react.NewDevice(react.DefaultProfile(), react.NewRadioTransmit(react.DefaultProfile().SleepI)),
				})
				if err != nil {
					return 0, err
				}
				return res.Metrics["tx"], nil
			})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tx[0], "tx_vlow1.85")
		b.ReportMetric(tx[1], "tx_vlow1.90")
		b.ReportMetric(tx[2], "tx_vlow2.20")
	}
}

// BenchmarkExtensionDewdrop (ours) evaluates the Dewdrop baseline (§2.4):
// an adaptive enable voltage makes a small static buffer wake exactly when
// the next transmission is affordable, beating the fixed-enable static on
// RT — but it cannot escape the capacity limit the way REACT does.
func BenchmarkExtensionDewdrop(b *testing.B) {
	b.ReportAllocs()
	prof := react.DefaultProfile()
	txEnergy := 4.95e-3 * 1.4
	mk := []func() react.Buffer{
		func() react.Buffer {
			return react.NewStatic(react.StaticConfig{
				Name: "2.2 mF", C: 2.2e-3, VMax: 3.6, LeakI: 2.2e-6, VRated: 6.3,
			})
		},
		func() react.Buffer {
			return react.NewDewdrop(react.DewdropConfig{
				C: 2.2e-3, VMax: 3.6, VMin: prof.VBrownout,
				LeakI: 2.2e-6, VRated: 6.3, TaskEnergy: txEnergy,
			})
		},
		func() react.Buffer { return react.NewREACT(react.DefaultConfig()) },
	}
	for i := 0; i < b.N; i++ {
		tx, err := react.Sweep(context.Background(), nil, mk,
			func(_ context.Context, newBuf func() react.Buffer) (float64, error) {
				res, err := react.Run(react.SimConfig{
					Frontend: react.NewFrontend(react.RFCart(1), nil),
					Buffer:   newBuf(),
					Device:   react.NewDevice(prof, react.NewRadioTransmit(prof.SleepI)),
				})
				if err != nil {
					return 0, err
				}
				return res.Metrics["tx"], nil
			})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tx[0], "tx_static")
		b.ReportMetric(tx[1], "tx_dewdrop")
		b.ReportMetric(tx[2], "tx_react")
	}
}
