package dsp

import (
	"math"
	"testing"
)

// TestLowPassAttenuatesHighFrequency drives the biquad with a low tone and
// a high tone; the low tone must pass nearly unchanged while the high tone
// is strongly attenuated.
func TestLowPassAttenuatesHighFrequency(t *testing.T) {
	const fs, fc = 8000.0, 500.0
	gain := func(freq float64) float64 {
		f := NewLowPass(fs, fc, 0.707)
		var peak float64
		n := int(fs) // one second
		for i := 0; i < n; i++ {
			y := f.Process(math.Sin(2 * math.Pi * freq * float64(i) / fs))
			if i > n/2 && math.Abs(y) > peak { // skip transient
				peak = math.Abs(y)
			}
		}
		return peak
	}
	low := gain(50)
	high := gain(3000)
	if low < 0.9 {
		t.Errorf("passband gain %.3f, want ≈1", low)
	}
	if high > 0.1 {
		t.Errorf("stopband gain %.3f, want strong attenuation", high)
	}
}

func TestLowPassBadCutoffPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("cutoff above Nyquist must panic")
		}
	}()
	NewLowPass(8000, 5000, 0.707)
}

func TestProcessBlockRMS(t *testing.T) {
	f := NewLowPass(8000, 3999, 0.707) // nearly all-pass
	samples := make([]float64, 256)
	for i := range samples {
		samples[i] = 1.0
	}
	rms := f.ProcessBlock(samples)
	if rms < 0.8 || rms > 1.2 {
		t.Errorf("DC RMS through near-all-pass = %.3f, want ≈1", rms)
	}
	if got := f.ProcessBlock(nil); got != 0 {
		t.Errorf("empty block RMS = %g, want 0", got)
	}
}

func TestBiquadReset(t *testing.T) {
	f := NewLowPass(8000, 500, 0.707)
	f.Process(1)
	f.Process(1)
	f.Reset()
	if f.z1 != 0 || f.z2 != 0 {
		t.Error("reset must clear state")
	}
}
