package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"react/internal/scenario"
	"react/internal/service"
)

// set builds the explicit-flag set the CLI derives from flag.Visit.
func set(flags ...string) map[string]bool {
	m := map[string]bool{}
	for _, f := range flags {
		m[f] = true
	}
	return m
}

// TestCheckModeConflicts pins the satellite fix: conflicting mode flags
// are an error (exit 2 in main), never a silent precedence.
func TestCheckModeConflicts(t *testing.T) {
	bad := map[string]map[string]bool{
		"scenario with explore":       set("scenario", "explore"),
		"scenario with scenario-file": set("scenario", "scenario-file"),
		"list with scenario":          set("list", "scenario"),
		"list with explore":           set("list", "explore"),
		"explore with scenario-file":  set("explore", "scenario-file"),
		"all four modes":              set("list", "scenario", "scenario-file", "explore"),
		"target without explore":      set("target", "scenario"),
		"seed with seeds":             set("seed", "seeds"),
		"seeds with scenario-file":    set("seeds", "scenario-file"),
		"seeds with scenario":         set("seeds", "scenario"),
		"seeds with explore":          set("seeds", "explore"),
		"remote seeds with explore":   set("remote", "seeds", "explore"),
		"remote with list":            set("remote", "list"),
	}
	for label, explicit := range bad {
		if err := checkModeConflicts(explicit); err == nil {
			t.Errorf("%s: must be rejected", label)
		}
	}
	good := map[string]map[string]bool{
		"bare run":             set("trace", "buffer", "seed"),
		"single-cell sweep":    set("seeds", "buffer"),
		"scenario":             set("scenario", "seed", "workers", "json"),
		"scenario file":        set("scenario-file", "json"),
		"explore":              set("explore", "target", "workers", "json"),
		"list":                 set("list"),
		"remote seed sweep":    set("remote", "scenario", "seeds"),
		"remote scenario-file": set("remote", "scenario-file", "seeds"),
		"remote exploration":   set("remote", "explore", "target"),
		"nothing explicit":     set(),
	}
	for label, explicit := range good {
		if err := checkModeConflicts(explicit); err != nil {
			t.Errorf("%s: spuriously rejected: %v", label, err)
		}
	}
}

func TestParseTarget(t *testing.T) {
	tgt, err := parseTarget("latency<=0.5")
	if err != nil || tgt.Metric != "latency" || tgt.Max == nil || *tgt.Max != 0.5 || tgt.Min != nil {
		t.Fatalf("ceiling parse wrong: %+v, %v", tgt, err)
	}
	tgt, err = parseTarget("blocks>=100")
	if err != nil || tgt.Metric != "blocks" || tgt.Min == nil || *tgt.Min != 100 {
		t.Fatalf("floor parse wrong: %+v, %v", tgt, err)
	}
	// Bare "=" is ceiling shorthand.
	tgt, err = parseTarget("dead_time=0.1")
	if err != nil || tgt.Max == nil || *tgt.Max != 0.1 {
		t.Fatalf("shorthand parse wrong: %+v, %v", tgt, err)
	}
	for _, bad := range []string{"latency", "<=5", "latency<=x", ""} {
		if _, err := parseTarget(bad); err == nil {
			t.Errorf("%q: must be rejected", bad)
		}
	}
}

// TestRunExploreSmoke is the -explore short-mode smoke: a tiny grid space
// runs end to end from a file through the local evaluator, in both human
// and JSON form, and a bisection via -target finds a design.
func TestRunExploreSmoke(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "space.json")
	space := `{
		"spec": {
			"name": "cli-smoke",
			"trace": {"gen": "steady", "mean": 0.01, "duration": 20},
			"workload": {"bench": "DE"},
			"buffers": [{"preset": "REACT"}]
		},
		"static": {"from": 500e-6, "to": 5e-3, "points": 3},
		"presets": ["REACT"],
		"pareto": [{"x": "c", "y": "latency"}]
	}`
	if err := os.WriteFile(path, []byte(space), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runExplore(path, "", "", 2, false); err != nil {
		t.Fatalf("grid exploration failed: %v", err)
	}
	if err := runExplore(path, "", "", 2, true); err != nil {
		t.Fatalf("JSON exploration failed: %v", err)
	}
	// -target implies bisection when the space names no strategy; duty on
	// a steady trace is high everywhere, so the floor is met immediately.
	if err := runExplore(path, "duty>=0.1", "", 1, false); err == nil {
		t.Fatal("bisection over a space with presets must be rejected")
	}
	bisect := strings.Replace(space, `"presets": ["REACT"],`, "", 1)
	path2 := filepath.Join(dir, "bisect.json")
	if err := os.WriteFile(path2, []byte(bisect), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runExplore(path2, "duty>=0.1", "", 1, false); err != nil {
		t.Fatalf("bisection exploration failed: %v", err)
	}
	// A malformed space file is a load-time error, not a panic.
	if err := runExplore(filepath.Join(dir, "missing.json"), "", "", 1, false); err == nil {
		t.Fatal("missing space file must error")
	}
}

// TestResultTableLocalMatchesRemote: a local scenario run and the same
// spec served by reactd print the same result table, byte for byte, and a
// remote cell without a result prints as a "-" row.
func TestResultTableLocalMatchesRemote(t *testing.T) {
	specJSON := `{
		"name": "cli-table",
		"trace": {"gen": "steady", "mean": 0.01, "duration": 20},
		"workload": {"bench": "SC"},
		"buffers": [{"preset": "770 µF"}, {"preset": "REACT"}]
	}`
	spec, err := scenario.ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	run, err := spec.Run(context.Background(), nil, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var local strings.Builder
	writeResultTable(&local, localCells(spec, run.Results))

	srv, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	client, err := service.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.Run(context.Background(), service.RunRequest{Spec: json.RawMessage(specJSON)})
	if err != nil {
		t.Fatal(err)
	}
	var remote strings.Builder
	writeResultTable(&remote, st.Cells)
	if local.String() != remote.String() {
		t.Fatalf("local table:\n%s\nremote table:\n%s", local.String(), remote.String())
	}
	if lines := strings.Split(local.String(), "\n"); len(lines) != 4 || !strings.Contains(lines[0], "cycles") {
		t.Fatalf("want a header and two rows, got:\n%s", local.String())
	}

	st.Cells[1].Result = nil
	remote.Reset()
	writeResultTable(&remote, st.Cells)
	rows := strings.Split(remote.String(), "\n")
	if want := fmt.Sprintf("%-14s %9s", "REACT", "-"); rows[2] != want {
		t.Errorf("missing-result row %q, want %q", rows[2], want)
	}
}
