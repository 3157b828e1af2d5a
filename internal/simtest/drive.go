package simtest

import (
	"fmt"
	"math"
	"testing"

	"react/internal/buffer"
	"react/internal/rng"
)

// Drive is a fixed per-tick schedule of buffer inputs: the energy
// harvested, the energy drawn, and the device power state handed to Tick.
// It stands in for a trace and a device, so two buffers — or one buffer on
// two builds — see exactly the same inputs whatever they do with them.
type Drive struct {
	DT      float64
	Harvest []float64 // joules per tick
	Draw    []float64 // joules per tick; 0 skips the Draw call
	On      []bool    // deviceOn for Tick
}

// NewDrive synthesizes n ticks of dt seconds from seed. Phases of phase
// ticks alternate, starting with surplus: harvesting at 0.5–1× peakW while
// the load draws a tenth of that, then deficit: the load draws 0.5–1×
// peakW and a trickle (≤ 5 % of peakW) arrives one tick in ten. The device
// power state flips with probability 1/500 per tick, so on and off runs
// are long enough for polled controllers to act; an off device draws
// nothing.
func NewDrive(seed uint64, n int, dt, peakW float64, phase int) *Drive {
	src := rng.New(seed)
	d := &Drive{DT: dt, Harvest: make([]float64, n), Draw: make([]float64, n), On: make([]bool, n)}
	on := true
	peak := peakW * dt
	for i := 0; i < n; i++ {
		if src.Intn(500) == 0 {
			on = !on
		}
		d.On[i] = on
		surplus := (i/phase)%2 == 0
		switch {
		case surplus:
			d.Harvest[i] = peak * (0.5 + 0.5*src.Float64())
		case src.Intn(10) == 0:
			d.Harvest[i] = 0.05 * peak * src.Float64()
		}
		if !on {
			continue
		}
		if surplus {
			d.Draw[i] = 0.1 * peak * (0.5 + 0.5*src.Float64())
		} else {
			d.Draw[i] = peak * (0.5 + 0.5*src.Float64())
		}
	}
	return d
}

// TickDrive is the drive the buffer differential tests and the per-layer
// BenchmarkTick benchmarks replay: 80 s at the engine's 1 ms step, 50 mW
// peaks, 20 s phases — enough to walk REACT's and Morphy's default
// capacitance ladders to the top and back down to level 0.
func TickDrive() *Drive { return NewDrive(1, 80000, 1e-3, 50e-3, 20000) }

// Len is the number of ticks in the drive.
func (d *Drive) Len() int { return len(d.Harvest) }

// Step applies tick i to b the way the engine does: Harvest, Draw when
// the tick draws anything, then Tick.
func (d *Drive) Step(b buffer.Buffer, i int) {
	b.Harvest(d.Harvest[i])
	if d.Draw[i] > 0 {
		b.Draw(d.Draw[i])
	}
	b.Tick(float64(i)*d.DT, d.DT, d.On[i])
}

// BenchTicks replays d on a fresh buffer from mk once per benchmark
// iteration and reports the mean cost of one Step as ns/tick. Building
// the buffer is not timed.
func BenchTicks(b *testing.B, d *Drive, mk func() buffer.Buffer) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		buf := mk()
		b.StartTimer()
		for t := 0; t < d.Len(); t++ {
			d.Step(buf, t)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*d.Len()), "ns/tick")
}

// BitDiff compares what two buffers expose, bit for bit: every Ledger
// field, Stored, OutputVoltage, Capacitance and, when both are Levelers,
// Level. It returns nil when they agree and otherwise names the first
// difference. Differential tests call it after every Step of a Drive.
func BitDiff(got, want buffer.Buffer) error {
	gl, wl := got.Ledger(), want.Ledger()
	for _, f := range []struct {
		name string
		g, w float64
	}{
		{"ledger.harvested", gl.Harvested, wl.Harvested},
		{"ledger.consumed", gl.Consumed, wl.Consumed},
		{"ledger.clipped", gl.Clipped, wl.Clipped},
		{"ledger.leaked", gl.Leaked, wl.Leaked},
		{"ledger.switch_loss", gl.SwitchLoss, wl.SwitchLoss},
		{"ledger.overhead", gl.Overhead, wl.Overhead},
		{"stored", got.Stored(), want.Stored()},
		{"output_voltage", got.OutputVoltage(), want.OutputVoltage()},
		{"capacitance", got.Capacitance(), want.Capacitance()},
	} {
		if math.Float64bits(f.g) != math.Float64bits(f.w) {
			return fmt.Errorf("%s: %.17g, want %.17g", f.name, f.g, f.w)
		}
	}
	gv, ok1 := got.(buffer.Leveler)
	wv, ok2 := want.(buffer.Leveler)
	if ok1 && ok2 && gv.Level() != wv.Level() {
		return fmt.Errorf("level: %d, want %d", gv.Level(), wv.Level())
	}
	return nil
}
