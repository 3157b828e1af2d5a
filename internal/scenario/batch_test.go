package scenario_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"react/internal/scenario"
)

// batchSpec is a cheap two-buffer spec for the batch-key guards.
func batchSpec(name string) *scenario.Spec {
	return &scenario.Spec{
		Name:     name,
		Trace:    scenario.TraceSpec{Gen: "steady", Mean: 0.01, Duration: 5},
		Workload: scenario.WorkloadSpec{Bench: "DE"},
		Buffers:  scenario.Presets("770 µF", "REACT"),
	}
}

// TestRunBatchRejectsMixedKeys pins RunBatch's guards: a batch is one
// lockstep trace pass, so every item must share the trace spec, effective
// seed and effective timestep, and name a real buffer of a real spec.
func TestRunBatchRejectsMixedKeys(t *testing.T) {
	base := batchSpec("base")
	seeded := batchSpec("seeded")
	seeded.Seed = 7
	fine := batchSpec("fine")
	fine.DT = 5e-4
	other := batchSpec("other")
	other.Trace.Duration = 6

	for _, tc := range []struct {
		name  string
		items []scenario.BatchItem
		opt   scenario.RunOptions
		want  string
	}{
		{"mixed seeds", []scenario.BatchItem{{Spec: base}, {Spec: seeded}}, scenario.RunOptions{}, "batch mixes seeds 1 and 7"},
		{"mixed timesteps", []scenario.BatchItem{{Spec: base}, {Spec: fine}}, scenario.RunOptions{}, "batch mixes timesteps 0.001 and 0.0005"},
		{"mixed trace specs", []scenario.BatchItem{{Spec: base}, {Spec: other}}, scenario.RunOptions{}, "batch mixes trace specs"},
		{"buffer out of range", []scenario.BatchItem{{Spec: base}, {Spec: base, Buffer: 2}}, scenario.RunOptions{}, "buffer index 2 out of range"},
		{"negative buffer", []scenario.BatchItem{{Spec: base, Buffer: -1}}, scenario.RunOptions{}, "buffer index -1 out of range"},
		{"nil spec", []scenario.BatchItem{{Spec: base}, {}}, scenario.RunOptions{}, "nil spec"},
		{"invalid options", []scenario.BatchItem{{Spec: base}}, scenario.RunOptions{DT: -1}, "dt must be finite"},
	} {
		res, err := scenario.RunBatch(tc.items, tc.opt, nil)
		if err == nil {
			t.Errorf("%s: accepted (%d results)", tc.name, len(res))
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want it to contain %q", tc.name, err, tc.want)
		}
	}

	// The seed and timestep guards judge resolved values: an explicit
	// override puts specs with different defaults on one key.
	res, err := scenario.RunBatch([]scenario.BatchItem{{Spec: seeded}, {Spec: base, Buffer: 1}, {Spec: fine}},
		scenario.RunOptions{Seed: 3, DT: 1e-3}, nil)
	if err != nil || len(res) != 3 {
		t.Fatalf("overridden keys: %d results, %v", len(res), err)
	}

	// The empty batch is no work, not an error.
	if res, err := scenario.RunBatch(nil, scenario.RunOptions{}, nil); res != nil || err != nil {
		t.Errorf("empty batch: %v, %v", res, err)
	}
}

// TestPlanBatches pins the one batching policy every cell scheduler
// shares: cells group by (trace spec, effective seed, effective timestep)
// in order of first appearance and in input order within a key, each key
// splits into at most slots contiguous chunks, and every planned batch
// runs through RunBatch exactly as its cells run alone.
func TestPlanBatches(t *testing.T) {
	base := batchSpec("base")
	seeded := batchSpec("seeded")
	seeded.Seed = 7
	fine := batchSpec("fine")
	fine.DT = 5e-4
	other := batchSpec("other")
	other.Trace.Duration = 6
	twin := batchSpec("twin") // a distinct spec on base's key

	items := []scenario.BatchItem{
		{Spec: base}, {Spec: seeded}, {Spec: base, Buffer: 1}, {Spec: fine},
		{Spec: other}, {Spec: twin}, {Spec: seeded, Buffer: 1},
	}
	uniform := func(opt scenario.RunOptions) []scenario.RunOptions {
		opts := make([]scenario.RunOptions, len(items))
		for i := range opts {
			opts[i] = opt
		}
		return opts
	}
	// An explicit seed on one cell matches another spec's default seed.
	mixed := uniform(scenario.RunOptions{})
	mixed[0].Seed = 7
	mixed[5].DT = 5e-4

	type want struct {
		items    []int
		seed     uint64
		dt       float64
		recordDT float64
	}
	for _, tc := range []struct {
		name string
		opts []scenario.RunOptions
		want []want
	}{
		// Seed, timestep and trace each split a key.
		{"spec defaults", uniform(scenario.RunOptions{}), []want{
			{[]int{0, 2, 5}, 1, 1e-3, 0}, {[]int{1, 6}, 7, 1e-3, 0}, {[]int{3}, 1, 5e-4, 0}, {[]int{4}, 1, 1e-3, 0},
		}},
		// Overrides put specs with different defaults on one key; the
		// batch's other options are its first member's.
		{"overrides", uniform(scenario.RunOptions{Seed: 3, DT: 1e-3, RecordDT: 0.5}), []want{
			{[]int{0, 1, 2, 3, 5, 6}, 3, 1e-3, 0.5}, {[]int{4}, 3, 1e-3, 0.5},
		}},
		{"mixed overrides", mixed, []want{
			{[]int{0, 1, 6}, 7, 1e-3, 0}, {[]int{2}, 1, 1e-3, 0}, {[]int{3, 5}, 1, 5e-4, 0}, {[]int{4}, 1, 1e-3, 0},
		}},
	} {
		got := scenario.PlanBatches(items, tc.opts, 1)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d batches, want %d: %+v", tc.name, len(got), len(tc.want), got)
		}
		for bi, b := range got {
			w := tc.want[bi]
			if !reflect.DeepEqual(b.Items, w.items) || b.Opt.Seed != w.seed || b.Opt.DT != w.dt || b.Opt.RecordDT != w.recordDT {
				t.Errorf("%s: batch %d is %v %+v, want %v seed %d dt %g record dt %g",
					tc.name, bi, b.Items, b.Opt, w.items, w.seed, w.dt, w.recordDT)
			}
		}
		// RunBatch accepts every planned batch, at any slot count, and
		// reproduces each cell run alone.
		for _, slots := range []int{1, 2} {
			for _, b := range scenario.PlanBatches(items, tc.opts, slots) {
				members := make([]scenario.BatchItem, len(b.Items))
				for j, i := range b.Items {
					members[j] = items[i]
				}
				res, err := scenario.RunBatch(members, b.Opt, nil)
				if err != nil {
					t.Fatalf("%s: RunBatch rejected planned batch %v: %v", tc.name, b.Items, err)
				}
				for j, i := range b.Items {
					alone, err := items[i].Spec.Cell(items[i].Buffer, tc.opts[i])
					if err != nil {
						t.Fatal(err)
					}
					equalResults(t, fmt.Sprintf("%s: cell %d (slots %d)", tc.name, i, slots), alone, res[j])
				}
			}
		}
	}

	// One key splits into at most slots contiguous, near-equal chunks, in
	// order: the ranges Spec.Run has always used.
	for n := 1; n <= 7; n++ {
		one := make([]scenario.BatchItem, n)
		for i := range one {
			one[i] = scenario.BatchItem{Spec: base, Buffer: i % 2}
		}
		for slots := 0; slots <= 9; slots++ {
			got := scenario.PlanBatches(one, make([]scenario.RunOptions, n), slots)
			want := refChunks(n, slots)
			if len(got) != len(want) {
				t.Fatalf("n=%d slots=%d: %d batches, want %d", n, slots, len(got), len(want))
			}
			for bi, b := range got {
				lo, hi := want[bi][0], want[bi][1]
				if len(b.Items) != hi-lo || b.Items[0] != lo || b.Items[len(b.Items)-1] != hi-1 {
					t.Errorf("n=%d slots=%d: batch %d is %v, want [%d, %d)", n, slots, bi, b.Items, lo, hi)
				}
			}
		}
	}

	if got := scenario.PlanBatches(nil, nil, 4); len(got) != 0 {
		t.Errorf("no cells planned %d batches", len(got))
	}
	// Planning resolves the timestep, so RunCells checks each cell's
	// options as given: an invalid override must not fall back silently.
	if _, err := scenario.RunCells(context.Background(), nil, items[:1], []scenario.RunOptions{{DT: -1}}); err == nil ||
		!strings.Contains(err.Error(), "dt must be finite") {
		t.Errorf("invalid dt override: %v", err)
	}
}

// refChunks is the reference partition of [0, n) into at most parts
// contiguous ranges of near-equal size (parts <= 0 counts as one).
func refChunks(n, parts int) [][2]int {
	if parts <= 0 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	var out [][2]int
	lo := 0
	for p := 0; p < parts; p++ {
		hi := lo + (n-lo)/(parts-p)
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}
