package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"react/internal/buffer"
	"react/internal/circuit"
	"react/internal/ckpt"
	"react/internal/harvest"
	"react/internal/mcu"
	"react/internal/scenario"
	"react/internal/sim"
	"react/internal/trace"
)

// The isolated per-layer ladder: each row times one layer's public API on
// inputs recorded from the workloads' own traces, below the engine.

var ladderBuffers = []struct{ name, metric string }{
	{"770 µF", "770uF"}, {"10 mF", "10mF"}, {"17 mF", "17mF"},
	{"Morphy", "Morphy"}, {"REACT", "REACT"}, {"Capybara", "Capybara"}, {"Dewdrop", "Dewdrop"},
}

var ladderWorkloads = []struct {
	metric, bench string
	scheme        *ckpt.Config
}{
	{"DE", "DE", nil}, {"SC", "SC", nil}, {"RT", "RT", nil}, {"PF", "PF", nil},
	{"MIX", "MIX", nil}, {"DE-odab", "DE", &ckpt.Config{Scheme: "odab"}},
}

const ladderReps = 3

// ladderDT is the engine's default timestep, which every paper scenario
// steps at.
const ladderDT = 1e-3

// drive is a per-tick recording of what a device did to its buffer on a
// trace: energy harvested, energy drawn, and whether the device was on.
type drive struct {
	dt   float64
	h, d []float64
	on   []bool
}

// enginePower is the harvest path of the lockstep engine (sim.RunBatch):
// one trace read per batch tick, Sample when the step equals the trace's
// spacing and At otherwise, then per cell the converter, which for the
// identity converter is a clamp at zero instead of a Deliver call.
type enginePower struct {
	tr                *trace.Trace
	conv              harvest.Converter
	aligned, identity bool
}

func newEnginePower(tr *trace.Trace, conv harvest.Converter) enginePower {
	_, identity := conv.(harvest.Identity)
	return enginePower{tr: tr, conv: conv, aligned: harvest.NewFrontend(tr, conv).Aligned(ladderDT), identity: identity}
}

// read is a batch tick's trace read, shared by the batch's cells.
func (p enginePower) read(i int) float64 {
	if p.aligned {
		return p.tr.Sample(i)
	}
	return p.tr.At(float64(i) * ladderDT)
}

// deliver is one cell's conversion of the read at buffer voltage v.
func (p enginePower) deliver(raw, v float64) float64 {
	if p.identity {
		return max(raw, 0)
	}
	return p.conv.Deliver(raw, v)
}

// simulate steps a device running bench (with an optional checkpoint
// scheme) on buf over the trace of ep, the way the engine runs a cell of a
// one-cell batch (harvest, device step, buffer tick), and records the
// drive. It returns the wall time of the loop.
func simulate(ep enginePower, buf buffer.Buffer, bench string, scheme *ckpt.Config, seed uint64, rec *drive) (time.Duration, error) {
	tr := ep.tr
	prof := mcu.DefaultProfile()
	wl, err := scenario.WorkloadSpec{Bench: bench}.Build(tr, seed, prof)
	if err != nil {
		return 0, err
	}
	dev := mcu.NewDevice(prof, wl)
	if scheme != nil {
		if dev.Scheme, err = (scenario.DeviceSpec{Checkpoint: scheme}).BuildScheme(); err != nil {
			return 0, err
		}
	}
	n, dt := ticksOf(tr), ladderDT
	rec.dt = dt
	rec.h, rec.d, rec.on = make([]float64, n), make([]float64, n), make([]bool, n)
	led := buf.Ledger()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		now := float64(i) * dt
		h := ep.deliver(ep.read(i), buf.OutputVoltage()) * dt
		buf.Harvest(h)
		c0 := led.Consumed
		dev.Step(now, dt, buf)
		on := dev.Powered()
		buf.Tick(now, dt, on)
		rec.h[i], rec.d[i], rec.on[i] = h, led.Consumed-c0, on
	}
	return time.Since(t0), nil
}

// replay feeds a recorded drive to a fresh buffer: Harvest, Draw, Tick per
// tick. It returns nanoseconds per tick.
func replay(name string, dr *drive) (float64, error) {
	buf, err := scenario.NewPresetBuffer(name)
	if err != nil {
		return 0, err
	}
	n := len(dr.h)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		now := float64(i) * dr.dt
		buf.Harvest(dr.h[i])
		if dr.d[i] > 0 {
			buf.Draw(dr.d[i])
		}
		buf.Tick(now, dr.dt, dr.on[i])
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n), nil
}

// ticksOf is the number of engine ticks that cover a trace.
func ticksOf(tr *trace.Trace) int { return int(tr.Duration() / ladderDT) }

func medianOf(reps int, f func() (float64, error)) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		v, err := f()
		if err != nil {
			return 0, err
		}
		xs = append(xs, v)
	}
	return median(xs), nil
}

// runLadder measures every isolated row and the derived shares, and the
// CPU profile taken over the traced phase.
func runLadder(e *env, r *report) error {
	cart := trace.RFCart(e.seed)

	// trace: synthesizing the three RF traces.
	synth, _ := medianOf(20, func() (float64, error) {
		t0 := time.Now()
		rfTraces(e.seed)
		return time.Since(t0).Seconds() * 1e3 / 3, nil
	})
	r.set("trace.synth_ms", synth, "ms", 20, "per RF trace")

	// circuit: the capacitor primitives every buffer is built on.
	const nc = 2_000_000
	leak, _ := medianOf(ladderReps, func() (float64, error) {
		c := &circuit.Capacitor{C: 10e-3, Q: 10e-3 * 3, LeakI: 10e-6, VRated: 6.3, VMax: 5}
		t0 := time.Now()
		for i := 0; i < nc; i++ {
			c.Leak(1e-3)
		}
		return float64(time.Since(t0).Nanoseconds()) / nc, nil
	})
	add, _ := medianOf(ladderReps, func() (float64, error) {
		c := &circuit.Capacitor{C: 10e-3, Q: 10e-3 * 3, VMax: 5}
		dq := 1e-9
		t0 := time.Now()
		for i := 0; i < nc; i++ {
			c.AddCharge(dq)
			dq = -dq
		}
		return float64(time.Since(t0).Nanoseconds()) / nc, nil
	})
	r.set("circuit.leak_ns", leak, "ns", ladderReps, "Capacitor.Leak")
	r.set("circuit.add_charge_ns", add, "ns", ladderReps, "Capacitor.AddCharge")

	// harvest: the engine's harvest path on RF Cart with the converter of
	// the paper scenarios, timed as its two parts because a batch shares
	// the trace read among its cells while each cell runs the converter.
	sp, ok := scenario.Lookup(scenario.PaperName("DE", cart.Name))
	if !ok {
		return fmt.Errorf("paper-de-rf-cart not registered")
	}
	sp.Trace = scenario.TraceSpec{Loaded: cart}
	conv, err := harvest.ByName(sp.Converter)
	if err != nil {
		return err
	}
	ep := newEnginePower(cart, conv)
	nt := ticksOf(cart)
	raw := make([]float64, nt)
	readNs, _ := medianOf(ladderReps, func() (float64, error) {
		t0 := time.Now()
		for i := range raw {
			raw[i] = ep.read(i)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(nt), nil
	})
	convNs, err := medianOf(ladderReps, func() (float64, error) {
		sink := 0.0
		t0 := time.Now()
		for _, x := range raw {
			sink += ep.deliver(x, 3)
		}
		d := float64(time.Since(t0).Nanoseconds()) / float64(nt)
		if sink < 0 {
			return 0, fmt.Errorf("negative harvested power")
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	deliver := readNs + convNs
	r.set("harvest.deliver_ns", deliver, "ns", ladderReps, "engine harvest path of a one-cell batch: trace read + converter")

	// buffer: Harvest+Draw+Tick per tick, replaying the drive each buffer
	// saw under the DE benchmark on RF Cart.
	ticks := map[string]float64{}
	for _, b := range ladderBuffers {
		buf, err := scenario.NewPresetBuffer(b.name)
		if err != nil {
			return err
		}
		var dr drive
		if _, err := simulate(ep, buf, "DE", nil, e.seed, &dr); err != nil {
			return err
		}
		v, err := medianOf(ladderReps, func() (float64, error) { return replay(b.name, &dr) })
		if err != nil {
			return err
		}
		ticks[b.name] = v
		r.set("buffer.tick_ns."+b.metric, v, "ns", ladderReps, "RF Cart DE drive replay")
	}

	// mcu: device + workload step per tick, as the full device loop on a
	// 10 mF capacitor minus the buffer replay of the same drive and the
	// frontend lookup.
	var mcuDE float64
	for _, w := range ladderWorkloads {
		var dr drive
		full, err := medianOf(ladderReps, func() (float64, error) {
			buf, err := scenario.NewPresetBuffer("10 mF")
			if err != nil {
				return 0, err
			}
			d, err := simulate(ep, buf, w.bench, w.scheme, e.seed, &dr)
			return float64(d.Nanoseconds()) / float64(nt), err
		})
		if err != nil {
			return err
		}
		bufOnly, err := medianOf(ladderReps, func() (float64, error) { return replay("10 mF", &dr) })
		if err != nil {
			return err
		}
		step := math.Max(0, full-bufOnly-deliver)
		if w.metric == "DE" {
			mcuDE = step
		}
		r.set("mcu.step_ns."+w.metric, step, "ns", ladderReps, "device loop − buffer replay − harvest path")
	}

	// sim: the lockstep engine per cell-tick on paper-de-rf-cart at batch
	// sizes 1 (REACT alone) and 5 (the paper buffers).
	cellTick := func(bufs ...int) (float64, error) {
		items := make([]scenario.BatchItem, len(bufs))
		for i, b := range bufs {
			items[i] = scenario.BatchItem{Spec: sp, Buffer: b}
		}
		var st sim.Stats
		t0 := time.Now()
		if _, err := scenario.RunBatch(items, scenario.RunOptions{Seed: e.seed}, &st); err != nil {
			return 0, err
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(st.TicksSimulated), nil
	}
	b1, err := medianOf(3, func() (float64, error) { return cellTick(4) })
	if err != nil {
		return err
	}
	b5, err := medianOf(3, func() (float64, error) { return cellTick(0, 1, 2, 3, 4) })
	if err != nil {
		return err
	}
	r.set("sim.cell_tick_ns.b1", b1, "ns", 3, "paper-de-rf-cart, REACT alone")
	r.set("sim.cell_tick_ns.b5", b5, "ns", 3, "paper-de-rf-cart, the five paper buffers")
	paperTick := 0.0
	for _, name := range scenario.PaperBuffers {
		paperTick += ticks[name] / float64(len(scenario.PaperBuffers))
	}
	// At batch 5 the trace read is shared by the five cells.
	explained := paperTick + mcuDE + readNs/float64(len(scenario.PaperBuffers)) + convNs
	r.set("sim.engine_share", math.Max(0, 1-explained/b5), "share", 0, "b5 not explained by the buffer, mcu and harvest rows, the trace read shared by the batch")
	r.set("ladder.physics_share", math.Min(1, paperTick/b5), "share", 0, "paper buffer rows over b5")

	// scenario: the content address and spec parser the read path runs.
	rsp, ok := scenario.Lookup(readScenario)
	if !ok {
		return fmt.Errorf("%s not registered", readScenario)
	}
	const nf = 2000
	fp, err := medianOf(ladderReps, func() (float64, error) {
		t0 := time.Now()
		for i := 0; i < nf; i++ {
			if _, err := rsp.FingerprintCell(i%len(rsp.Buffers), scenario.RunOptions{Seed: uint64(i + 1), DT: readDT}); err != nil {
				return 0, err
			}
		}
		return time.Since(t0).Seconds() * 1e6 / nf, nil
	})
	if err != nil {
		return err
	}
	data, err := json.Marshal(rsp)
	if err != nil {
		return err
	}
	parse, err := medianOf(ladderReps, func() (float64, error) {
		t0 := time.Now()
		for i := 0; i < nf; i++ {
			if _, err := scenario.ParseSpec(data); err != nil {
				return 0, err
			}
		}
		return time.Since(t0).Seconds() * 1e6 / nf, nil
	})
	if err != nil {
		return err
	}
	r.set("scenario.fingerprint_us", fp, "us", ladderReps, "FingerprintCell")
	r.set("scenario.parse_us", parse, "us", ladderReps, "ParseSpec of a registered spec")

	return reportProfile(e, r)
}
