package simtest

import (
	"testing"

	"react/internal/buffer"
	"react/internal/capybara"
	"react/internal/core"
	"react/internal/morphy"
)

// TestTickDriveAllocsZero pins the reconfigurable buffers' per-tick paths
// as allocation-free: one TickDrive replay, which walks each default
// ladder to the top and back down, allocates nothing once the buffer is
// built.
func TestTickDriveAllocsZero(t *testing.T) {
	d := TickDrive()
	for _, tc := range []struct {
		name string
		mk   func() buffer.Buffer
	}{
		{"REACT", func() buffer.Buffer { return core.New(core.DefaultConfig()) }},
		{"Morphy", func() buffer.Buffer { return morphy.New(morphy.DefaultConfig()) }},
		{"Capybara", func() buffer.Buffer { return capybara.New(capybara.DefaultConfig()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// AllocsPerRun calls f twice (warm-up, then the measured run);
			// each call replays the drive on a fresh buffer built here,
			// outside the measurement.
			bufs := []buffer.Buffer{tc.mk(), tc.mk()}
			call := 0
			allocs := testing.AllocsPerRun(1, func() {
				b := bufs[call]
				call++
				for i := 0; i < d.Len(); i++ {
					d.Step(b, i)
				}
			})
			if allocs != 0 {
				t.Errorf("%v allocs per TickDrive replay, want 0", allocs)
			}
		})
	}
}
