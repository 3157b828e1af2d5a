package scenario_test

import (
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
