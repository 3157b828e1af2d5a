package buffer

import (
	"fmt"
	"math"
)

// Dewdrop is the adaptive-enable-voltage baseline (Buettner et al.,
// NSDI'11) the paper discusses in §2.4: a single static capacitor whose
// wake-up voltage is matched to the energy of the next task instead of a
// fixed platform threshold. That makes all stored energy fungible — the
// system wakes exactly when the pending work is affordable — but, as the
// paper notes, "still suffers from the reactivity-longevity tradeoff of
// capacitor size": the capacitor is as fixed as any static buffer. It is
// a Static buffer plus the enable-voltage and Leveler methods.
type Dewdrop struct {
	Static
	vMin  float64
	vCeil float64
	task  float64 // energy of the pending task, joules
}

// DewdropConfig describes a Dewdrop buffer.
type DewdropConfig struct {
	Name   string
	C      float64 // farads
	VMax   float64 // overvoltage clip
	VMin   float64 // device brownout voltage (task energy is usable above it)
	LeakI  float64
	VRated float64
	// TaskEnergy is the energy the next quantum of work needs; the enable
	// voltage is derived from it. Software updates it as tasks change.
	TaskEnergy float64
	// VEnableCeil bounds the computed enable voltage (a task too big for
	// the capacitor would otherwise push it past the clip voltage).
	VEnableCeil float64
}

// NewDewdrop builds an adaptive-enable buffer.
func NewDewdrop(cfg DewdropConfig) *Dewdrop {
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("Dewdrop %.0f µF", cfg.C*1e6)
	}
	d := &Dewdrop{
		Static: *NewStatic(StaticConfig{
			Name: name, C: cfg.C, VMax: cfg.VMax,
			LeakI: cfg.LeakI, VRated: cfg.VRated,
		}),
		vMin:  cfg.VMin,
		vCeil: cfg.VEnableCeil,
	}
	if d.vCeil == 0 {
		d.vCeil = cfg.VMax
	}
	d.SetTaskEnergy(cfg.TaskEnergy)
	return d
}

var (
	_ Buffer       = (*Dewdrop)(nil)
	_ EnableHinter = (*Dewdrop)(nil)
	_ Leveler      = (*Dewdrop)(nil)
)

// SetTaskEnergy updates the pending-task energy that drives the enable
// voltage (Dewdrop's software interface).
func (d *Dewdrop) SetTaskEnergy(e float64) { d.task = e }

// EnableVoltage implements EnableHinter: the voltage at which the
// capacitor holds the task energy above the brownout floor,
// √(2E/C + V_min²), clamped to the configured ceiling.
func (d *Dewdrop) EnableVoltage() float64 {
	if d.cap.C == 0 {
		return d.vCeil
	}
	v := math.Sqrt(2*d.task/d.cap.C + d.vMin*d.vMin)
	if v > d.vCeil {
		return d.vCeil
	}
	if v < d.vMin {
		return d.vMin
	}
	return v
}

// Dewdrop has exactly one capacitance configuration, so its "level ladder"
// is binary: level 1 means the task-matched enable voltage is reached and
// the pending task's energy is guaranteed. Exposing it through Leveler
// lets the RT/PF workloads gate atomic operations the way Dewdrop's
// runtime does — run one task per wake-up instead of attempting doomed
// repeats.

// Level implements Leveler.
func (d *Dewdrop) Level() int {
	if d.cap.Voltage() >= d.EnableVoltage()-1e-9 {
		return 1
	}
	return 0
}

// MaxLevel implements Leveler.
func (d *Dewdrop) MaxLevel() int { return 1 }

// GuaranteedEnergy implements Leveler.
func (d *Dewdrop) GuaranteedEnergy(level int) float64 {
	if level <= 0 {
		return 0
	}
	return d.task
}
