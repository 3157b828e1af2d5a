// Package dsp implements the digital filtering used by the Sense-and-
// Compute benchmark: the paper's SC workload wakes every five seconds to
// sample a low-power MEMS microphone and digitally filter the reading.
//
// The package provides the direct-form-II biquad section behind the
// anti-alias low-pass the benchmark applies, implemented from scratch.
package dsp

import "math"

// Biquad is a second-order IIR section in direct form II transposed.
type Biquad struct {
	b0, b1, b2 float64 // feed-forward
	a1, a2     float64 // feedback (a0 normalized to 1)
	z1, z2     float64 // state
}

// NewLowPass designs a Butterworth-style low-pass biquad with cutoff fc and
// quality q at sample rate fs (RBJ audio-EQ cookbook form). It panics if
// fc is not below the Nyquist rate — a construction-time configuration
// error.
func NewLowPass(fs, fc, q float64) *Biquad {
	if fc <= 0 || fc >= fs/2 {
		panic("dsp: cutoff must be in (0, fs/2)")
	}
	w0 := 2 * math.Pi * fc / fs
	alpha := math.Sin(w0) / (2 * q)
	cos := math.Cos(w0)
	a0 := 1 + alpha
	return &Biquad{
		b0: (1 - cos) / 2 / a0,
		b1: (1 - cos) / a0,
		b2: (1 - cos) / 2 / a0,
		a1: -2 * cos / a0,
		a2: (1 - alpha) / a0,
	}
}

// Process filters one sample.
func (f *Biquad) Process(x float64) float64 {
	y := f.b0*x + f.z1
	f.z1 = f.b1*x - f.a1*y + f.z2
	f.z2 = f.b2*x - f.a2*y
	return y
}

// ProcessBlock filters a block in place and returns the RMS of the output —
// the quantity the SC benchmark reports per sample burst.
func (f *Biquad) ProcessBlock(samples []float64) float64 {
	var sumSq float64
	for i, x := range samples {
		y := f.Process(x)
		samples[i] = y
		sumSq += y * y
	}
	if len(samples) == 0 {
		return 0
	}
	return math.Sqrt(sumSq / float64(len(samples)))
}

// Reset clears the filter state.
func (f *Biquad) Reset() { f.z1, f.z2 = 0, 0 }
