package scenario_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"react/internal/buffer"
	"react/internal/runner"
	"react/internal/scenario"
	"react/internal/sim"
	"react/internal/simtest"
)

// shortFastScenarios is the subset the heavy suites run under -short: the
// quickest catalogue entries, enough to keep the scenario layer guarded on
// every push (including the -race job) without dominating CI.
var shortFastScenarios = map[string]bool{
	"energy-attack":      true,
	"dense-packet-storm": true,
	"tiny-cap-degraded":  true,
}

// determinismSpecs picks the scenarios the determinism suite covers: the
// fast subset under -short; every extended scenario plus two paper cells
// otherwise.
func determinismSpecs(t *testing.T) []*scenario.Spec {
	if testing.Short() {
		var specs []*scenario.Spec
		for _, s := range scenario.Extended() {
			if shortFastScenarios[s.Name] {
				specs = append(specs, s)
			}
		}
		return specs
	}
	specs := scenario.Extended()
	for _, name := range []string{"paper-de-rf-cart", "paper-pf-rf-mobile"} {
		s, ok := scenario.Lookup(name)
		if !ok {
			t.Fatalf("paper scenario %q missing", name)
		}
		specs = append(specs, s)
	}
	return specs
}

func equalResults(t *testing.T, label string, a, b sim.Result) {
	t.Helper()
	if a.Latency != b.Latency || a.OnTime != b.OnTime || a.Duration != b.Duration ||
		a.Cycles != b.Cycles || a.MeanCycle != b.MeanCycle ||
		a.Ledger != b.Ledger || a.Stored != b.Stored {
		t.Errorf("%s: runs differ bit-for-bit: %+v vs %+v", label, a, b)
		return
	}
	if len(a.Metrics) != len(b.Metrics) {
		t.Errorf("%s: metric sets differ", label)
		return
	}
	for k, v := range a.Metrics {
		if b.Metrics[k] != v {
			t.Errorf("%s: metric %s differs: %g vs %g", label, k, v, b.Metrics[k])
		}
	}
}

// TestScenarioDeterminism extends the engine's worker-count determinism
// guarantee to the scenario layer: every covered scenario is bit-identical
// for one, two and eight workers (one batch, a few chunks, one cell per
// batch) and across a back-to-back repeat.
func TestScenarioDeterminism(t *testing.T) {
	for _, spec := range determinismSpecs(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			if testing.Short() && spec.Long {
				t.Skip("long scenario; run without -short")
			}
			ctx := context.Background()
			serial, err := spec.Run(ctx, &runner.Runner{Workers: 1}, scenario.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, run := range []struct {
				label   string
				workers int
			}{{"1 vs 2 workers", 2}, {"1 vs 8 workers", 8}, {"back-to-back", 1}} {
				got, err := spec.Run(ctx, &runner.Runner{Workers: run.workers}, scenario.RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				for i := range spec.Buffers {
					label := spec.Name + "/" + spec.Buffers[i].DisplayName()
					equalResults(t, label+" ("+run.label+")", serial.Results[i], got.Results[i])
				}
			}
		})
	}
}

// TestScenarioBatchSizeDeterminism pins the batched executor's core
// contract at the scenario layer: splitting a scenario's buffers into
// lockstep batches of 1, 2, or all-at-once must leave every result
// bit-identical to the worker-pool path that spec.Run takes.
func TestScenarioBatchSizeDeterminism(t *testing.T) {
	for _, spec := range determinismSpecs(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			if testing.Short() && spec.Long {
				t.Skip("long scenario; run without -short")
			}
			run, err := spec.Run(context.Background(), &runner.Runner{Workers: 4}, scenario.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{1, 2, len(spec.Buffers)} {
				for lo := 0; lo < len(spec.Buffers); lo += size {
					hi := lo + size
					if hi > len(spec.Buffers) {
						hi = len(spec.Buffers)
					}
					var items []scenario.BatchItem
					for i := lo; i < hi; i++ {
						items = append(items, scenario.BatchItem{Spec: spec, Buffer: i})
					}
					res, err := scenario.RunBatch(items, scenario.RunOptions{}, nil)
					if err != nil {
						t.Fatal(err)
					}
					for i := lo; i < hi; i++ {
						label := spec.Name + "/" + spec.Buffers[i].DisplayName()
						equalResults(t, fmt.Sprintf("%s (batch size %d)", label, size),
							run.Results[i], res[i-lo])
					}
				}
			}
		})
	}
}

// TestScenarioInvariants runs scenarios with every buffer wrapped in the
// simtest auditor: per-tick energy conservation, bounded rail voltage,
// monotonic time, and a physical recorded series — and, because the
// wrapper is pass-through, identical metrics to the unwrapped golden runs
// (the golden suite provides that cross-check).
func TestScenarioInvariants(t *testing.T) {
	names := []string{"energy-attack", "tiny-cap-degraded"}
	if !testing.Short() {
		names = nil
		for _, s := range scenario.Extended() {
			names = append(names, s.Name)
		}
		names = append(names, "paper-rt-rf-cart")
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, ok := scenario.Lookup(name)
			if !ok {
				t.Fatalf("scenario %q missing", name)
			}
			var (
				mu   sync.Mutex
				recs []*simtest.Recorder
			)
			for i := range spec.Buffers {
				orig := spec.Buffers[i]
				spec.Buffers[i] = scenario.BufferSpec{
					Label: orig.DisplayName(),
					New: func() buffer.Buffer {
						b, err := orig.Build()
						if err != nil {
							panic(err)
						}
						cb, rec := simtest.Check(b, 0)
						mu.Lock()
						recs = append(recs, rec)
						mu.Unlock()
						return cb
					},
				}
			}
			run, err := spec.Run(context.Background(), nil, scenario.RunOptions{RecordDT: 2})
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(recs) != len(spec.Buffers) {
				t.Fatalf("%d auditors for %d buffers", len(recs), len(spec.Buffers))
			}
			for _, rec := range recs {
				if err := rec.Err(); err != nil {
					t.Error(err)
				}
				if rec.Ticks() == 0 {
					t.Error("auditor saw no ticks")
				}
			}
			for i, res := range run.Results {
				label := name + "/" + spec.Buffers[i].DisplayName()
				simtest.CheckBalance(t, label, res, 1e-6)
				simtest.CheckSamples(t, label, res.Samples, 0)
				if len(res.Samples) == 0 {
					t.Errorf("%s: no recorded samples despite RecordDT", label)
				}
			}
		})
	}
}
