package service

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"react/internal/scenario"
)

var updateWire = flag.Bool("update", false, "rewrite the wire golden files under testdata/wire")

// wireSpec is the tiny inline spec the wire goldens drive: two buffers on
// a 30 s steady trace, milliseconds per cell.
const wireSpec = `{"name": "wire-tiny", "trace": {"gen": "steady", "mean": 0.01, "duration": 30}, "workload": {"bench": "DE"}, "buffers": [{"preset": "770 µF"}, {"preset": "REACT"}]}`

// wireSpace is the exploration the wire goldens drive: a two-point static
// lattice plus one preset over the same trace, one seed.
const wireSpace = `{"spec": ` + wireSpec + `, "static": {"from": 0.001, "to": 0.002, "points": 2}, "presets": ["REACT"], "seeds": [1], "pareto": [{"x": "c", "y": "latency"}]}`

var (
	wireTraceID = regexp.MustCompile(`"trace_id": "[0-9a-f]{32}"`)
	wireTime    = regexp.MustCompile(`"(created|finished)": "[^"]*"`)
	// An exploration's submission response races its engine's first
	// batch: how many cells it lists is a matter of scheduling, so those
	// fields are masked in that one golden (its GET golden pins them).
	wireCells    = regexp.MustCompile(`(?s)"cells": (\[\]|\[\n.*?\n  \])`)
	wireProgress = regexp.MustCompile(`(?s)"progress": \{\n.*?\n  \}`)
	wireCounts   = regexp.MustCompile(`"(evaluated_points|cached_cells|coalesced_cells|new_cells)": \d+`)
)

// wireExchange performs one request through ServeHTTP and returns the
// status code and body.
func wireExchange(t *testing.T, srv *Server, method, path, body string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s %s: Content-Type %q", method, path, ct)
	}
	return rec.Code, rec.Body.String()
}

// wireWait polls a view through ServeHTTP until it is terminal.
func wireWait(t *testing.T, srv *Server, path string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body := wireExchange(t, srv, http.MethodGet, path, "")
		var st struct {
			Status string `json:"status"`
		}
		if code != http.StatusOK || json.Unmarshal([]byte(body), &st) != nil {
			t.Fatalf("GET %s: %d %s", path, code, body)
		}
		if Terminal(st.Status) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s: still %s", path, st.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWireGolden pins the service's wire bytes: the status code and body
// of POST, GET and DELETE for one run, one sweep and one exploration, the
// decode-error bodies of the three POSTs, and the wrong-kind lookups of
// each id under the other kinds' paths. Ids, trace ids and timestamps are
// normalised; everything else — field order, omitted fields, indentation,
// result numbers — compares byte for byte. A long-poll GET of each finished
// view must answer at once with the plain GET's bytes. Regenerate with
// -update.
func TestWireGolden(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	started := make(chan int, 1)
	release := make(chan struct{})
	unblock := mustUnblock(t, release)
	// The blocker pins the single worker slot, so every submission below
	// is deterministically still queued when its POST answers.
	srv.Submit(blockerSpec(started, release), scenario.RunOptions{})
	<-started

	ids := map[string]string{} // real id -> placeholder
	check := func(name, method, path, body string, wantCode int, mask bool) string {
		t.Helper()
		code, out := wireExchange(t, srv, method, path, body)
		if code != wantCode {
			t.Errorf("%s: %s %s = %d, want %d\n%s", name, method, path, code, wantCode, out)
		}
		var head struct {
			ID string `json:"id"`
		}
		if json.Unmarshal([]byte(out), &head) == nil && head.ID != "" && ids[head.ID] == "" {
			ids[head.ID] = fmt.Sprintf("<%s-id>", name[:strings.IndexByte(name, '_')])
		}
		norm := wireTraceID.ReplaceAllString(out, `"trace_id": "<trace-id>"`)
		norm = wireTime.ReplaceAllString(norm, `"$1": "<time>"`)
		if mask {
			norm = wireCells.ReplaceAllString(norm, `"cells": "<masked>"`)
			norm = wireProgress.ReplaceAllString(norm, `"progress": "<masked>"`)
			norm = wireCounts.ReplaceAllString(norm, `"$1": "<masked>"`)
		}
		got := fmt.Sprintf("%s %s -> %d\n%s", method, path, code, norm)
		// View ids ("r000002") cannot collide with the hex of fingerprints
		// and trace ids, so they are replaced wherever they appear.
		for id, ph := range ids {
			got = strings.ReplaceAll(got, id, ph)
		}
		file := filepath.Join("testdata", "wire", name+".golden")
		if *updateWire {
			if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			return head.ID
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create)", name, err)
		}
		if got != string(want) {
			t.Errorf("%s: wire bytes differ from %s\n--- got ---\n%s\n--- want ---\n%s", name, file, got, want)
		}
		return head.ID
	}

	// Submissions while the worker is pinned: 202 and running.
	runID := check("run_post", http.MethodPost, "/runs", `{"spec": `+wireSpec+`, "seed": 1}`, http.StatusAccepted, false)
	sweepID := check("sweep_post", http.MethodPost, "/sweeps", `{"spec": `+wireSpec+`, "seeds": [1, 2]}`, http.StatusAccepted, false)
	exploreID := check("exploration_post", http.MethodPost, "/explorations", wireSpace, http.StatusAccepted, true)
	if runID == "" || sweepID == "" || exploreID == "" {
		t.Fatalf("submissions returned no ids: %q %q %q", runID, sweepID, exploreID)
	}
	// The engine attaches its one grid batch asynchronously; let it land
	// while the worker is still pinned, so the cache disposition is fixed.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		_, body := wireExchange(t, srv, http.MethodGet, "/explorations/"+exploreID, "")
		var st ExploreStatus
		if json.Unmarshal([]byte(body), &st) == nil && st.Progress.CellsTotal == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("exploration never attached its batch: %s", body)
		}
	}
	unblock()
	wireWait(t, srv, "/runs/"+runID)
	wireWait(t, srv, "/sweeps/"+sweepID)
	wireWait(t, srv, "/explorations/"+exploreID)

	// Finished views, and a whole-run cache hit answered synchronously.
	check("run_get", http.MethodGet, "/runs/"+runID, "", http.StatusOK, false)
	check("run_post_cached", http.MethodPost, "/runs", `{"spec": `+wireSpec+`, "seed": 1}`, http.StatusOK, false)
	check("sweep_get", http.MethodGet, "/sweeps/"+sweepID, "", http.StatusOK, false)
	check("exploration_get", http.MethodGet, "/explorations/"+exploreID, "", http.StatusOK, false)
	// A long-poll of a finished view answers at once, with exactly the
	// bytes of the plain GET the goldens above pin.
	for _, path := range []string{"/runs/" + runID, "/sweeps/" + sweepID, "/explorations/" + exploreID} {
		_, plain := wireExchange(t, srv, http.MethodGet, path, "")
		start := time.Now()
		code, held := wireExchange(t, srv, http.MethodGet, path+"?wait=30s", "")
		if code != http.StatusOK || held != plain {
			t.Errorf("GET %s?wait=30s = %d, body differs from the plain GET:\n%s\n%s", path, code, held, plain)
		}
		if took := time.Since(start); took > 5*time.Second {
			t.Errorf("GET %s?wait=30s of a finished view held %v", path, took)
		}
	}

	// Decode errors.
	check("run_decode_error", http.MethodPost, "/runs", `{"bogus": 1}`, http.StatusBadRequest, false)
	check("sweep_decode_error", http.MethodPost, "/sweeps", `{"seeds": "x"}`, http.StatusBadRequest, false)
	check("exploration_decode_error", http.MethodPost, "/explorations", `{`, http.StatusBadRequest, false)

	// Wrong-kind lookups: every id under every other kind's paths.
	kinds := []struct{ name, path, id string }{
		{"run", "/runs/", runID},
		{"sweep", "/sweeps/", sweepID},
		{"exploration", "/explorations/", exploreID},
	}
	for _, under := range kinds {
		for _, of := range kinds {
			if under.name == of.name {
				continue
			}
			check(fmt.Sprintf("%s_get_%s_id", under.name, of.name), http.MethodGet, under.path+of.id, "", http.StatusNotFound, false)
			check(fmt.Sprintf("%s_trace_%s_id", under.name, of.name), http.MethodGet, under.path+of.id+"/trace", "", http.StatusNotFound, false)
			check(fmt.Sprintf("%s_delete_%s_id", under.name, of.name), http.MethodDelete, under.path+of.id, "", http.StatusNotFound, false)
		}
	}

	// Forgetting the finished views.
	check("run_delete", http.MethodDelete, "/runs/"+runID, "", http.StatusOK, false)
	check("sweep_delete", http.MethodDelete, "/sweeps/"+sweepID, "", http.StatusOK, false)
	check("exploration_delete", http.MethodDelete, "/explorations/"+exploreID, "", http.StatusOK, false)
	check("run_get_forgotten", http.MethodGet, "/runs/"+runID, "", http.StatusNotFound, false)
}
