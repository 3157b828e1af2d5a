package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"react/internal/ckpt"
	"react/internal/sim"
	"react/internal/trace"
)

// This file computes content addresses for scenario runs: a stable,
// canonical encoding of everything that determines a run's results, hashed
// with SHA-256. Two submissions with the same fingerprint produce
// bit-identical results (the engine is deterministic for any worker count),
// which is what lets the service layer deduplicate and cache runs.
//
// The canonical form excludes presentation metadata (Name, Title, Paper,
// Long) — it describes the physics, not the catalogue entry — and resolves
// the defaulted knobs the spec layer itself resolves (seed 0 → the spec's
// seed → 1; timestep 0 → the spec's → 1 ms; tail cap 0 → 600 s; the
// steady generator's mean/duration; a static buffer's VMax/LeakI/VRated),
// so a defaulted run and its explicitly spelled-out equivalent share one
// address. A buffer's react block is hashed as written; an absent block is
// omitted from the encoding, so buffers without one keep the addresses
// they had before the block existed. Workload-internal defaults (an SC period, a PF interarrival)
// are hashed raw: spelling one out produces a distinct address even when
// it matches the benchmark's built-in default — a dedup miss, never a
// false hit.

// The fpcomplete analyzer cross-checks this file against the spec structs:
// every JSON-visible field of the types below must either feed the
// canonical form (mentioned here or wholesale-encoded through canonicalRun)
// or be explicitly allowlisted with a reason. A new physics knob that
// reaches none of the two breaks the build — a missed field would let two
// different runs share a cache address.
//
//lint:fpcomplete-target Spec TraceSpec DeviceSpec WorkloadSpec BufferSpec StaticSpec ReactSpec RunOptions ckpt.Config
//lint:fpcomplete-allow Spec.Name presentation metadata, not physics (canonical form comment above)
//lint:fpcomplete-allow Spec.Title presentation metadata, not physics
//lint:fpcomplete-allow Spec.Paper presentation metadata, not physics
//lint:fpcomplete-allow Spec.Long presentation metadata, not physics
//lint:fpcomplete-allow RunOptions.Probe observation hook: probes never change results (sim.Probe contract)

// FingerprintPrefix tags every fingerprint with the hash it was built from.
const FingerprintPrefix = "sha256:"

// canonicalRun is the hashed form of a Spec resolved against RunOptions.
// Field order (and therefore encoding) is fixed; bump the fingerprint
// version comment below when changing it.
type canonicalRun struct {
	Trace     canonicalTrace `json:"trace"`
	Converter string         `json:"converter"`
	Device    DeviceSpec     `json:"device"`
	Workload  WorkloadSpec   `json:"workload"`
	Buffers   []BufferSpec   `json:"buffers"`
	DT        float64        `json:"dt"`
	TailCap   float64        `json:"tail_cap"`
	Seed      uint64         `json:"seed"`
	RecordDT  float64        `json:"record_dt,omitempty"`
}

// canonicalTrace is the trace selection with a Loaded trace replaced by a
// digest of its content (name, spacing, and every sample — the name
// participates because event seeds derive from it).
type canonicalTrace struct {
	Gen      string  `json:"gen,omitempty"`
	Mean     float64 `json:"mean,omitempty"`
	Duration float64 `json:"duration,omitempty"`
	Digest   string  `json:"digest,omitempty"`
}

// traceDigest hashes a loaded trace's content.
func traceDigest(tr *trace.Trace) string {
	h := sha256.New()
	h.Write([]byte(tr.Name))
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(tr.DT))
	h.Write(buf[:])
	for _, p := range tr.Power {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Fingerprint returns the content address of the runs this spec produces at
// its default options — the registry key the service's result cache uses
// for named-scenario submissions. Specs carrying a Go-only custom buffer
// constructor have no canonical encoding and return an error.
func (s *Spec) Fingerprint() (string, error) {
	return s.FingerprintRun(RunOptions{})
}

// FingerprintRun returns the content address of the spec resolved against
// opt: equal fingerprints mean bit-identical Run results. JSON field order
// of an inline submission never matters — specs are parsed into structs
// before encoding — and option defaults hash identically to their explicit
// values.
func (s *Spec) FingerprintRun(opt RunOptions) (string, error) {
	return s.fingerprintBuffers(opt, s.Buffers)
}

// FingerprintCell returns the content address of buffer i's cell under opt:
// the canonical physics (trace, converter, device, workload, resolved
// seed/timestep/tail cap) plus that one buffer. A cell's address equals the
// run address of the equivalent single-buffer spec, so a one-buffer run IS
// its cell — which is what lets the service cache share cells between runs
// and sweeps that overlap on any buffer.
func (s *Spec) FingerprintCell(i int, opt RunOptions) (string, error) {
	if i < 0 || i >= len(s.Buffers) {
		return "", fmt.Errorf("scenario %q: buffer index %d out of range", s.Name, i)
	}
	return s.fingerprintBuffers(opt, s.Buffers[i:i+1])
}

// fingerprintBuffers canonicalizes the spec's physics against opt with the
// given buffer subset and hashes the encoding.
func (s *Spec) fingerprintBuffers(opt RunOptions, buffers []BufferSpec) (string, error) {
	c := canonicalRun{
		Converter: s.Converter,
		Device:    s.Device,
		Workload:  s.Workload,
		DT:        s.ResolveDT(opt.DT),
		TailCap:   s.TailCap,
		Seed:      opt.seed(s),
		RecordDT:  opt.RecordDT,
	}
	if ck := c.Device.Checkpoint; ck != nil {
		// Resolve the scheme's defaulted knobs so a defaulted block and its
		// spelled-out equivalent share one address — and canonicalize the
		// explicit no-op ({"scheme": "none"} or {}) to the nil pointer, which
		// the encoder omits entirely: a scheme-less device keeps the address
		// it had before checkpoint schemes existed.
		res, err := ckpt.Resolve(*ck)
		if err != nil {
			return "", fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		if res.Scheme == "none" {
			c.Device.Checkpoint = nil
		} else {
			c.Device.Checkpoint = &res
		}
	}
	if c.Converter == "" {
		c.Converter = "identity"
	}
	if c.TailCap <= 0 {
		c.TailCap = sim.DefaultTailCap
	}
	c.Buffers = make([]BufferSpec, len(buffers))
	for i, bs := range buffers {
		if bs.New != nil {
			return "", fmt.Errorf("scenario %q: buffer %q: custom constructor buffers have no canonical encoding", s.Name, bs.DisplayName())
		}
		if bs.Static != nil {
			st := bs.Static.withDefaults()
			bs.Static = &st
		}
		c.Buffers[i] = bs
	}
	ts := s.Trace
	c.Trace = canonicalTrace{Gen: ts.Gen, Mean: ts.Mean, Duration: ts.Duration}
	if ts.Gen == steadyGen {
		c.Trace.Mean, c.Trace.Duration = ts.steadyKnobs()
	}
	if ts.Loaded != nil {
		c.Trace.Digest = traceDigest(ts.Loaded)
	}
	data, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("scenario %q: encoding canonical form: %w", s.Name, err)
	}
	return FingerprintPrefix + fmt.Sprintf("%x", sha256.Sum256(data)), nil
}
