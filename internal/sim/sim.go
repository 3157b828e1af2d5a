// Package sim is the discrete-time engine coupling a harvesting frontend,
// an energy buffer, and the device running a workload — the software
// equivalent of the paper's testbed (§4): power replay into the buffer,
// power gate at the enable/brownout voltages, benchmark on top.
//
// Each tick (default 1 ms): harvest energy into the buffer, step the device
// (which draws its load), then advance the buffer's internal processes
// (diode relaxation, leakage, clipping, controller polling). After the
// trace ends the run continues until the device is off and cannot re-enable
// — the paper's "once the trace is complete, we let the system run until it
// drains the buffer capacitor".
package sim

import (
	"fmt"
	"math"

	"react/internal/buffer"
	"react/internal/harvest"
	"react/internal/mcu"
)

// The defaults a zero Config.DT and Config.TailCap select. The scenario
// layer resolves against the same constants, so a spec that spells a
// default out shares a cell address with one that leaves it zero.
const (
	// DefaultDT is the integration timestep in seconds.
	DefaultDT = 1e-3
	// DefaultTailCap bounds the post-trace drain phase in seconds.
	DefaultTailCap = 600.0
)

// Config describes one simulation run.
type Config struct {
	// DT is the integration timestep in seconds (default DefaultDT).
	DT float64
	// Frontend supplies power (trace × converter).
	Frontend *harvest.Frontend
	// Buffer is the energy buffer under test.
	Buffer buffer.Buffer
	// Device is the computational backend with its workload attached.
	Device *mcu.Device
	// TailCap bounds the post-trace drain phase (default DefaultTailCap).
	TailCap float64
	// RecordDT, when positive, records the rail voltage, device state and
	// equivalent capacitance every RecordDT seconds (for the figures).
	RecordDT float64
	// Probe, when non-nil, observes the run's device-level events (state
	// transitions, checkpoints, reconfigurations, fast-forward parks) for
	// timeline recording. Probes never change results; the nil path costs
	// only a predictable branch per cell-tick.
	Probe Probe
	// ProbeCell is the cell index reported to Probe callbacks, letting a
	// caller that splits one logical run across several batches keep
	// global cell identities. Ignored when Probe is nil.
	ProbeCell int
}

// Sample is one recorded point of a run.
type Sample struct {
	T  float64 // seconds
	V  float64 // rail voltage
	On bool    // device powered
	C  float64 // equivalent buffer capacitance, farads
	P  float64 // harvested power being delivered, watts
}

// Result is the outcome of one run.
type Result struct {
	Buffer   string
	Workload string
	// Latency is the time to first enable (Table 4); −1 if the system
	// never starts.
	Latency float64
	// OnTime is the total powered time; Duration the full simulated time.
	OnTime, Duration float64
	// Cycles and MeanCycle summarize uninterrupted power cycles.
	Cycles    int
	MeanCycle float64
	// Metrics are the workload counters (blocks, samples, tx, rx, ...).
	Metrics map[string]float64
	// Ledger is the buffer's final energy accounting; Stored the residual.
	Ledger buffer.Ledger
	Stored float64
	// InitialStored is the energy the buffer held before the first tick —
	// nonzero for pre-charged buffers, and part of the conservation input
	// side alongside the harvested energy.
	InitialStored float64
	// Samples is the recording, when enabled.
	Samples []Sample
}

// OnFraction returns the duty cycle over the trace duration.
func (r Result) OnFraction() float64 {
	if r.Duration == 0 {
		return 0
	}
	return r.OnTime / r.Duration
}

// EnergyBalanceError returns the relative conservation error of the run —
// nonzero means the simulation created or destroyed energy. The input side
// counts the energy the buffer started with as well as the harvest, so a
// pre-charged zero-harvest run (an energy-attack or cold-start study) that
// merely spends its initial charge reports zero error, not a huge one. The
// error is normalized against the larger of the two sides; a run where both
// are zero moved no energy and is trivially conserved.
func (r Result) EnergyBalanceError() float64 {
	l := r.Ledger
	in := l.Harvested + r.InitialStored
	out := l.Consumed + l.Clipped + l.Leaked + l.SwitchLoss + l.Overhead + r.Stored
	denom := math.Max(in, out)
	if denom == 0 {
		return 0
	}
	return math.Abs(in-out) / denom
}

// Run executes the simulation to completion. It routes through the batched
// executor (RunBatch) with a batch of one, which adds dead-time
// fast-forward on top of the reference loop; results are bit-identical to
// RunReference (the equivalence suite in batch_test.go enforces this).
func Run(cfg Config) (Result, error) {
	res, err := RunBatch([]Config{cfg}, nil)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// RunReference executes the simulation to completion with the original
// per-tick loop. It is retained verbatim as the executable specification
// the batched executor is tested against: RunBatch must reproduce its
// results bit for bit, so any change here is a semantics change for the
// whole engine.
func RunReference(cfg Config) (Result, error) {
	if cfg.Frontend == nil || cfg.Buffer == nil || cfg.Device == nil {
		return Result{}, fmt.Errorf("sim: frontend, buffer and device are all required")
	}
	dt := cfg.DT
	if dt <= 0 {
		dt = 1e-3
	}
	tailCap := cfg.TailCap
	if tailCap <= 0 {
		tailCap = 600
	}

	buf, dev, fe := cfg.Buffer, cfg.Device, cfg.Frontend
	traceDur := fe.Trace.Duration()
	var samples []Sample
	if cfg.RecordDT > 0 {
		// Pre-size for the trace plus the bounded drain tail.
		samples = make([]Sample, 0, int((traceDur+tailCap)/cfg.RecordDT)+2)
	}
	// The record schedule is an integer index, not an accumulated float:
	// point k is due at k*RecordDT. Accumulating nextRecord += RecordDT
	// instead drifts over hundred-million-tick runs and occasionally drops
	// or duplicates points near the schedule boundaries.
	recIdx := 0

	// When the trace sample spacing equals the timestep, tick i reads
	// sample i directly instead of interpolating (fast path).
	aligned := fe.Aligned(dt)

	initialStored := buf.Stored()
	// Probe change detectors, mirroring the batched executor's: the
	// reference loop emits the same DeviceState/Checkpoint/BufferReconfig
	// stream (it never fast-forwards, so no FastForward events).
	var lastState mcu.State
	var lastCap float64
	var lastBackups, lastRestores int
	if cfg.Probe != nil {
		lastState = dev.State()
		lastCap = buf.Capacitance()
		lastBackups, lastRestores = dev.Backups, dev.Restores
	}
	// t is derived from the tick count, never accumulated: summing dt once
	// per tick builds up float error over long runs (2.6e8 ticks for the
	// 72 h scenario), skewing sample timestamps and the trace-end check.
	tEnd := 0.0
	// v is the rail voltage at the start of the tick. The buffer state does
	// not change between the end of one tick and the start of the next, so
	// it is computed once per tick (after Tick) and reused for recording,
	// the drain-phase check, and the next tick's power delivery.
	v := buf.OutputVoltage()
	for tick := 0; ; tick++ {
		t := float64(tick) * dt
		var p float64
		if aligned {
			p = fe.PowerSample(tick, v)
		} else {
			p = fe.Power(t, v)
		}
		buf.Harvest(p * dt)
		dev.Step(t, dt, buf)
		buf.Tick(t, dt, dev.Powered())
		v = buf.OutputVoltage()
		if cfg.Probe != nil {
			if st := dev.State(); st != lastState {
				cfg.Probe.DeviceState(cfg.ProbeCell, t, lastState, st)
				lastState = st
			}
			if bk, rs := dev.Backups, dev.Restores; bk != lastBackups || rs != lastRestores {
				cfg.Probe.Checkpoint(cfg.ProbeCell, t, bk-lastBackups, rs-lastRestores)
				lastBackups, lastRestores = bk, rs
			}
			//lint:reactlint-ignore dtarith change detection, not a tolerance check: any capacitance difference is a reconfiguration event
			if cp := buf.Capacitance(); cp != lastCap {
				cfg.Probe.BufferReconfig(cfg.ProbeCell, t, cp)
				lastCap = cp
			}
		}

		if cfg.RecordDT > 0 && t >= float64(recIdx)*cfg.RecordDT {
			samples = append(samples, Sample{
				T: t, V: v, On: dev.Powered(),
				C: buf.Capacitance(), P: p,
			})
			recIdx++
		}

		tEnd = float64(tick+1) * dt
		if tEnd >= traceDur {
			// Drain phase: stop once the device is off and the rail can
			// no longer reach the enable voltage (no input remains).
			if !dev.Powered() && v < dev.Prof.VEnable {
				break
			}
			if tEnd >= traceDur+tailCap {
				break
			}
		}
	}
	if cfg.Probe != nil {
		cfg.Probe.Retire(cfg.ProbeCell, tEnd)
	}

	return Result{
		Buffer:        buf.Name(),
		Workload:      dev.WL.Name(),
		Latency:       dev.FirstOn,
		OnTime:        dev.OnTime,
		Duration:      tEnd,
		Cycles:        dev.Cycles,
		MeanCycle:     dev.MeanCycle(),
		Metrics:       dev.Metrics(),
		Ledger:        *buf.Ledger(),
		Stored:        buf.Stored(),
		InitialStored: initialStored,
		Samples:       samples,
	}, nil
}
