package scenario_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"react/internal/scenario"
)

// The cell-address golden: the run fingerprint and every cell fingerprint
// of every registered scenario, plus specs that lean on each default the
// canonical form resolves (the steady trace's level and length, a static
// buffer's VMax/LeakI/VRated, the timestep, the tail cap and the seed).
// Cached cells on disk and in peers are keyed by these strings, so a
// refactor of the canonical form must leave every byte of this file
// unchanged. Regenerate only with a deliberate address change:
//
//	go test ./internal/scenario -run FingerprintGolden -update

var fingerprintGoldenPath = filepath.Join("testdata", "fingerprints.json")

type fingerprintEntry struct {
	Name  string   `json:"name"`
	Run   string   `json:"run"`
	Cells []string `json:"cells"`
}

// goldenFPCase is one inline golden entry: a spec under run options.
type goldenFPCase struct {
	name string
	spec *scenario.Spec
	opt  scenario.RunOptions
}

// defaultLeaningSpecs are inline specs whose addresses depend on the
// defaults the canonical form fills in.
func defaultLeaningSpecs() []goldenFPCase {
	steady := &scenario.Spec{
		Name:     "fp-steady-defaults",
		Trace:    scenario.TraceSpec{Gen: "steady"},
		Workload: scenario.WorkloadSpec{Bench: "SC"},
		Buffers: []scenario.BufferSpec{
			{Label: "bare 2 mF", Static: &scenario.StaticSpec{C: 2e-3}},
			{Label: "rated 4 mF", Static: &scenario.StaticSpec{C: 4e-3, VRated: 10}},
			{Preset: "REACT"},
		},
	}
	spelled := steady.Clone()
	spelled.Trace = scenario.TraceSpec{Gen: "steady", Mean: 10e-3, Duration: 300}
	spelled.DT, spelled.TailCap, spelled.Seed = 1e-3, 600, 1
	tuned := steady.Clone()
	tuned.Trace = scenario.TraceSpec{Gen: "steady", Mean: 4e-3}
	tuned.DT, tuned.TailCap = 2e-3, 120
	return []goldenFPCase{
		{"fp-steady-defaults", steady, scenario.RunOptions{}},
		{"fp-steady-spelled", spelled, scenario.RunOptions{}},
		{"fp-steady-tuned", tuned, scenario.RunOptions{}},
		{"fp-steady-defaults seed=3 dt=5ms", steady, scenario.RunOptions{Seed: 3, DT: 5e-3}},
	}
}

func fingerprintEntryOf(t *testing.T, name string, s *scenario.Spec, opt scenario.RunOptions) fingerprintEntry {
	t.Helper()
	run, err := s.FingerprintRun(opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	e := fingerprintEntry{Name: name, Run: run}
	for i := range s.Buffers {
		fp, err := s.FingerprintCell(i, opt)
		if err != nil {
			t.Fatalf("%s cell %d: %v", name, i, err)
		}
		e.Cells = append(e.Cells, fp)
	}
	return e
}

func TestFingerprintGolden(t *testing.T) {
	var got []fingerprintEntry
	for _, s := range scenario.All() {
		got = append(got, fingerprintEntryOf(t, s.Name, s, scenario.RunOptions{}))
	}
	for _, c := range defaultLeaningSpecs() {
		got = append(got, fingerprintEntryOf(t, c.name, c.spec, c.opt))
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *update {
		if err := os.WriteFile(fingerprintGoldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fingerprintGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if string(want) == string(data) {
		return
	}
	var old []fingerprintEntry
	if err := json.Unmarshal(want, &old); err != nil {
		t.Fatalf("%s: %v", fingerprintGoldenPath, err)
	}
	for i, e := range got {
		if i >= len(old) || !reflect.DeepEqual(old[i], e) {
			t.Errorf("entry %d (%s): addresses differ from the golden", i, e.Name)
		}
	}
	if !t.Failed() {
		t.Errorf("%s has %d entries, want %d", fingerprintGoldenPath, len(old), len(got))
	}
}
