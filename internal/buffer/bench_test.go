package buffer_test

import (
	"testing"

	"react/internal/buffer"
	"react/internal/simtest"
)

// BenchmarkTick replays simtest.TickDrive on the paper's 10 mF static
// buffer (the "10 mF" preset: 1 µA/mF leakage at 6.3 V).
func BenchmarkTick(b *testing.B) {
	simtest.BenchTicks(b, simtest.TickDrive(), func() buffer.Buffer {
		return buffer.NewStatic(buffer.StaticConfig{Name: "10 mF", C: 10e-3, VMax: 3.6, LeakI: 10e-6, VRated: 6.3})
	})
}
