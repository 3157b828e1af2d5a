package scenario

import (
	"fmt"
	"strings"

	"react/internal/ckpt"
)

// paperTraces maps the paper grid's generator names to the trace names
// they produce, in Table 3 order. The pairing is asserted by tests.
var paperTraces = []struct{ Gen, TraceName string }{
	{"rf-cart", "RF Cart"},
	{"rf-obstructed", "RF Obstructed"},
	{"rf-mobile", "RF Mobile"},
	{"solar-campus", "Solar Campus"},
	{"solar-commute", "Solar Commute"},
}

// PaperName returns the registry name of one paper-grid scenario: the
// benchmark run on the named evaluation trace ("DE" on "RF Cart" is
// "paper-de-rf-cart").
func PaperName(bench, traceName string) string {
	slug := strings.ToLower(strings.ReplaceAll(traceName, " ", "-"))
	return "paper-" + strings.ToLower(bench) + "-" + slug
}

// staticsMF builds the §2.1 analysis's static buffers, labelled by size in
// millifarads ("1 mF"). They clip at 3.65 V, just above the 3.6 V enable
// voltage, as the Figure 1 plot shows.
func staticsMF(cs ...float64) []BufferSpec {
	specs := make([]BufferSpec, len(cs))
	for i, c := range cs {
		specs[i] = BufferSpec{Label: fmt.Sprintf("%g mF", c*1e3), Static: &StaticSpec{C: c, VMax: 3.65}}
	}
	return specs
}

func init() {
	// The extended catalogue: stress scenarios beyond the paper's §4.2
	// grid, drawn from the related work the repository tracks (memory-aware
	// ML partitioning, energy-attack mitigation, multi-day persistence).
	mustRegister(&Spec{
		Name:     "ml-inference",
		Title:    "partitioned on-device ML inference with FRAM checkpoints on pedestrian solar",
		Long:     true,
		Trace:    TraceSpec{Gen: "pedestrian", Duration: 1200},
		Workload: WorkloadSpec{Bench: "ML"},
		Buffers:  Presets("770 µF", "10 mF", "Morphy", "REACT"),
	})
	mustRegister(&Spec{
		Name:     "energy-attack",
		Title:    "adversarial harvest that droops right before each atomic transmission",
		Trace:    TraceSpec{Gen: "energy-attack"},
		Workload: WorkloadSpec{Bench: "RT"},
		Buffers:  Presets("770 µF", "10 mF", "Dewdrop", "REACT"),
	})
	mustRegister(&Spec{
		Name:     "cold-start",
		Title:    "from-dark deployment: 90 s of darkness, then a slow ramp (first-boot latency)",
		Trace:    TraceSpec{Gen: "cold-start"},
		Workload: WorkloadSpec{Bench: "DE"},
		Buffers:  Presets(PresetBuffers...),
	})
	mustRegister(&Spec{
		Name:  "night-heavy-solar",
		Title: "a day dominated by its night: sensing across a 20-minute dark gap",
		Trace: TraceSpec{Gen: "night-heavy-solar"},
		// The 40-minute trace at a 5 ms step keeps the scenario in the
		// fast tier without changing its day/night structure.
		DT:       5e-3,
		Workload: WorkloadSpec{Bench: "SC"},
		Buffers:  Presets("770 µF", "17 mF", "Morphy", "REACT"),
	})
	mustRegister(&Spec{
		Name:     "dense-packet-storm",
		Title:    "packet forwarding under a 1.5 s mean interarrival storm on RF Cart",
		Trace:    TraceSpec{Gen: "rf-cart"},
		Workload: WorkloadSpec{Bench: "PF", Interarrival: 1.5},
		Buffers:  Presets("770 µF", "10 mF", "Morphy", "REACT", "Capybara"),
	})
	mustRegister(&Spec{
		Name:  "long-haul-72h",
		Title: "three days of diurnal solar: persistence, leakage and night survival",
		Long:  true,
		Trace: TraceSpec{Gen: "solar-72h"},
		// A 0.2 s step keeps 72 h tractable; the workload has no
		// sub-second structure.
		DT:       0.2,
		Workload: WorkloadSpec{Bench: "DE"},
		Buffers:  Presets("17 mF", "Morphy", "REACT", "Capybara"),
	})
	mustRegister(&Spec{
		Name:     "tiny-cap-degraded",
		Title:    "aged hardware: a leaky 330 µF capacitor and a degraded MCU on weak RF",
		Trace:    TraceSpec{Gen: "rf-obstructed"},
		Device:   DeviceSpec{Profile: "degraded"},
		Workload: WorkloadSpec{Bench: "SC"},
		Buffers: append([]BufferSpec{{
			Label:  "330 µF aged",
			Static: &StaticSpec{C: 330e-6, LeakI: 5e-6},
		}}, Presets("770 µF", "REACT")...),
	})
	mustRegister(&Spec{
		Name:     "mixed-duty",
		Title:    "2 s sensing cadence feeding atomic batch transmissions on campus solar",
		Long:     true,
		Trace:    TraceSpec{Gen: "solar-campus", Duration: 1500},
		Workload: WorkloadSpec{Bench: "MIX"},
		Buffers:  Presets("770 µF", "10 mF", "Morphy", "REACT"),
	})
	mustRegister(&Spec{
		Name:     "ckpt-odab-de",
		Title:    "on-demand all-backup: suspend-with-image instead of brownout on weak RF",
		Trace:    TraceSpec{Gen: "rf-obstructed"},
		Device:   DeviceSpec{Checkpoint: &ckpt.Config{Scheme: "odab"}},
		Workload: WorkloadSpec{Bench: "DE"},
		Buffers:  Presets("770 µF", "10 mF", "REACT"),
	})
	mustRegister(&Spec{
		Name:  "ckpt-periodic-mix",
		Title: "1 s periodic snapshots under the mixed sensing/transmit duty on RF Cart",
		Trace: TraceSpec{Gen: "rf-cart"},
		Device: DeviceSpec{
			Checkpoint: &ckpt.Config{Scheme: "periodic", Interval: 1},
		},
		Workload: WorkloadSpec{Bench: "MIX"},
		Buffers:  Presets("770 µF", "10 mF", "REACT"),
	})

	// The paper's §2.1 background analysis (Figure 1 and the night-time
	// duty cycles) and its §5.1 overhead characterization. internal/
	// experiments renders their tables and series from these runs; the
	// buffer labels are the CSV and table headings. The §2.1 platform is
	// the default profile enabled at 3.6 V, drawing 1.5 mA while it runs
	// continuously whenever powered.
	mustRegister(&Spec{
		Name:     "background-pedestrian",
		Title:    "§2.1 / Figure 1: 1 mF vs 300 mF static buffers on the pedestrian solar trace",
		Trace:    TraceSpec{Gen: "pedestrian"},
		Device:   DeviceSpec{VEnable: 3.6},
		Workload: WorkloadSpec{Bench: "DE", ActiveI: 1.5e-3},
		Buffers:  staticsMF(1e-3, 300e-3),
	})
	mustRegister(&Spec{
		Name:     "background-night",
		Title:    "§2.1 night-time duty cycles: 1, 10 and 300 mF static buffers after dark",
		Trace:    TraceSpec{Gen: "night"},
		Device:   DeviceSpec{VEnable: 3.6},
		Workload: WorkloadSpec{Bench: "DE", ActiveI: 1.5e-3},
		Buffers:  staticsMF(1e-3, 10e-3, 300e-3),
	})
	mustRegister(&Spec{
		Name:     "react-overhead",
		Title:    "§5.1 overheads: REACT with and without its 10 Hz poll on steady 10 mW",
		Trace:    TraceSpec{Gen: "steady"},
		Workload: WorkloadSpec{Bench: "DE"},
		Buffers: []BufferSpec{
			{Preset: "REACT"},
			{Label: "REACT no poll", React: &ReactSpec{NoPoll: true}},
		},
	})

	// The paper grid: every §4.2 benchmark × Table 3 trace cell, each over
	// the five evaluated buffers. internal/experiments consumes these specs
	// to assemble its tables and figures, so the paper's evaluation is just
	// another set of registered scenarios.
	for _, bench := range PaperBenchmarks {
		for _, pt := range paperTraces {
			long := strings.HasPrefix(pt.Gen, "solar-")
			mustRegister(&Spec{
				Name:     PaperName(bench, pt.TraceName),
				Title:    fmt.Sprintf("paper grid: %s on %s", bench, pt.TraceName),
				Paper:    true,
				Long:     long,
				Trace:    TraceSpec{Gen: pt.Gen},
				Workload: WorkloadSpec{Bench: bench},
				Buffers:  Presets(PaperBuffers...),
			})
		}
	}
}
