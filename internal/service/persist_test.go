package service

import (
	"context"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"react/internal/scenario"
	"react/internal/store"
)

// openStore opens (or reopens) a test store on dir.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// sweepReq is the shared grid the persistence tests populate and re-read:
// 3 seeds × 2 buffers of fastSpec = 6 cells.
func sweepReq() SweepRequest {
	return SweepRequest{Spec: json.RawMessage(fastSpec), Seeds: []uint64{1, 2, 3}}
}

// TestRestartServesGridFromDisk is the restart-persistence acceptance
// test: a sweep populates the disk tier, the daemon "restarts" (new
// Server, same store dir), and re-running the sweep serves the whole grid
// from disk — sims stay 0, and the summary rows are bit-identical.
func TestRestartServesGridFromDisk(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	st1 := openStore(t, dir)
	_, c1 := newTestService(t, Config{Workers: 2, Store: st1})
	before, err := c1.Sweep(ctx, sweepReq())
	if err != nil {
		t.Fatal(err)
	}
	m, _ := c1.Metrics(ctx)
	if m.SimsCompleted != 6 || m.DiskPuts != 6 || !m.DiskEnabled {
		t.Fatalf("populate pass: sims %d, disk puts %d, enabled %v; want 6, 6, true", m.SimsCompleted, m.DiskPuts, m.DiskEnabled)
	}
	st1.Close()
	if st1.Len() != 6 {
		t.Fatalf("store holds %d cells, want 6", st1.Len())
	}

	// The restarted daemon: cold memory, warm disk.
	st2 := openStore(t, dir)
	_, c2 := newTestService(t, Config{Workers: 2, Store: st2})
	after, err := c2.Sweep(ctx, sweepReq())
	if err != nil {
		t.Fatal(err)
	}
	m, _ = c2.Metrics(ctx)
	if m.SimsCompleted != 0 {
		t.Errorf("restarted daemon simulated %d cells, want 0", m.SimsCompleted)
	}
	if m.DiskHits != 6 || m.CellHits != 6 {
		t.Errorf("disk hits %d, cell hits %d; want 6 each", m.DiskHits, m.CellHits)
	}
	if after.CachedCells != 6 || after.NewCells != 0 {
		t.Errorf("re-sweep disposition: %d cached, %d new; want 6, 0", after.CachedCells, after.NewCells)
	}

	// Bit-identical summaries: the disk round trip must not perturb a
	// single float.
	b, _ := json.Marshal(before.Summary)
	a, _ := json.Marshal(after.Summary)
	if string(a) != string(b) {
		t.Errorf("summaries diverged across the restart:\n%s\n%s", b, a)
	}
}

// corruptOneCell truncates one stored cell file, returning how many files
// it mangled (always 1).
func corruptOneCell(t *testing.T, dir string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "cells", "*", "*.cell"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no cell files to corrupt: %v (%d)", err, len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptCellQuarantinedAndResimulated: a truncated cell file is
// quarantined on read, the cell resimulates, and the server stays up —
// one corrupt file costs one sim, not an outage.
func TestCorruptCellQuarantinedAndResimulated(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	st1 := openStore(t, dir)
	_, c1 := newTestService(t, Config{Workers: 2, Store: st1})
	if _, err := c1.Sweep(ctx, sweepReq()); err != nil {
		t.Fatal(err)
	}
	st1.Close()
	corruptOneCell(t, dir)

	st2 := openStore(t, dir)
	_, c2 := newTestService(t, Config{Workers: 2, Store: st2})
	after, err := c2.Sweep(ctx, sweepReq())
	if err != nil {
		t.Fatal(err)
	}
	if after.Status != StatusDone {
		t.Fatalf("sweep over a corrupt store did not finish: %+v", after)
	}
	m, _ := c2.Metrics(ctx)
	if m.SimsCompleted != 1 {
		t.Errorf("resimulated %d cells, want exactly the 1 corrupted", m.SimsCompleted)
	}
	if m.DiskQuarantined != 1 || m.DiskHits != 5 || m.DiskMisses != 1 {
		t.Errorf("quarantined %d, disk hits %d, misses %d; want 1, 5, 1", m.DiskQuarantined, m.DiskHits, m.DiskMisses)
	}
	// The resimulated cell wrote back: the store is whole again.
	if st2.Len() != 6 {
		t.Errorf("store holds %d cells after repair, want 6", st2.Len())
	}
	q, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*.cell"))
	if len(q) != 1 {
		t.Errorf("quarantine holds %d files, want the 1 corrupt entry", len(q))
	}
}

// TestEvictionDemotesToDisk: LRU pressure drops a cell from memory but not
// from disk, and the next attachment of its address promotes it back
// without a simulation.
func TestEvictionDemotesToDisk(t *testing.T) {
	ctx := context.Background()
	st := openStore(t, t.TempDir())
	_, c := newTestService(t, Config{Workers: 2, CacheCells: 1, Store: st})

	if _, err := c.Sweep(ctx, SweepRequest{Spec: json.RawMessage(fastSpec), Seeds: []uint64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	m0, _ := c.Metrics(ctx)
	if m0.SimsCompleted != 4 || m0.CellEvictions != 3 || m0.CellEntries != 1 {
		t.Fatalf("populate pass: sims %d, evictions %d, entries %d; want 4, 3, 1", m0.SimsCompleted, m0.CellEvictions, m0.CellEntries)
	}
	if st.Len() != 4 {
		t.Fatalf("store holds %d cells, want all 4 (eviction must demote, not delete)", st.Len())
	}

	// Re-sweeping finds every cell on disk (or, for at most the one
	// memory slot, still cached — which cell occupies it depends on
	// completion order, so only a lower bound is exact).
	if _, err := c.Sweep(ctx, SweepRequest{Spec: json.RawMessage(fastSpec), Seeds: []uint64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	m1, _ := c.Metrics(ctx)
	if m1.SimsCompleted != m0.SimsCompleted {
		t.Errorf("re-sweep simulated (%d -> %d sims); every cell was on disk or in memory", m0.SimsCompleted, m1.SimsCompleted)
	}
	if m1.DiskHits < 3 || m1.DiskHits > 4 {
		t.Errorf("disk hits %d, want 3 or 4 promoted cells", m1.DiskHits)
	}
	if m1.CellHits != m0.CellHits+4 {
		t.Errorf("cell hits %d -> %d, want +4", m0.CellHits, m1.CellHits)
	}
}

// TestForgetDeletesDiskEntries: the explicit DELETE of a finished view
// removes its cells from the disk tier too — unlike an LRU demotion.
func TestForgetDeletesDiskEntries(t *testing.T) {
	ctx := context.Background()
	st := openStore(t, t.TempDir())
	_, c := newTestService(t, Config{Workers: 2, Store: st})

	rr, err := c.RunAsync(ctx, RunRequest{Spec: json.RawMessage(fastSpec)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 {
		t.Fatalf("store holds %d cells, want 2", st.Len())
	}
	if err := rr.Cancel(ctx); err != nil { // DELETE of a finished run = forget
		t.Fatal(err)
	}
	if st.Len() != 0 {
		t.Errorf("store holds %d cells after forget, want 0", st.Len())
	}
}

// TestEarlierJSONStoreUpgrades: a data dir written by a build that kept
// each cell as a <hex>.json JSON envelope opens empty — nothing indexed,
// nothing quarantined. A run over those addresses simulates each cell
// once and persists it as a .cell entry, which a restart then serves.
func TestEarlierJSONStoreUpgrades(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	spec, err := scenario.ParseSpec([]byte(fastSpec))
	if err != nil {
		t.Fatal(err)
	}
	// The earlier envelope around the earlier payload (a cell's plain
	// JSON), at each of the run's cell addresses.
	var olds []string
	for i := range spec.Buffers {
		fp, err := spec.FingerprintCell(i, scenario.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := spec.Cell(i, scenario.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cellJSON, _ := json.Marshal(res)
		env, _ := json.Marshal(struct {
			V    int             `json:"v"`
			Key  string          `json:"key"`
			Len  int             `json:"len"`
			CRC  uint32          `json:"crc32"`
			Cell json.RawMessage `json:"cell"`
		}{1, fp, len(cellJSON), crc32.ChecksumIEEE(cellJSON), cellJSON})
		hex := strings.TrimPrefix(fp, store.Prefix)
		old := filepath.Join(dir, "cells", hex[:2], hex+".json")
		if err := os.MkdirAll(filepath.Dir(old), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(old, env, 0o644); err != nil {
			t.Fatal(err)
		}
		olds = append(olds, old)
	}

	st1 := openStore(t, dir)
	if st1.Len() != 0 || st1.Quarantined() != 0 {
		t.Fatalf("earlier-format dir opened with %d entries, %d quarantined; want 0, 0", st1.Len(), st1.Quarantined())
	}
	_, c1 := newTestService(t, Config{Workers: 2, Store: st1})
	if _, err := c1.Run(ctx, RunRequest{Spec: json.RawMessage(fastSpec)}); err != nil {
		t.Fatal(err)
	}
	m, _ := c1.Metrics(ctx)
	if n := uint64(len(spec.Buffers)); m.SimsCompleted != n || m.DiskPuts != n || m.DiskQuarantined != 0 {
		t.Fatalf("sims %d, disk puts %d, quarantined %d; want %d, %d, 0", m.SimsCompleted, m.DiskPuts, m.DiskQuarantined, n, n)
	}
	if cells, _ := filepath.Glob(filepath.Join(dir, "cells", "*", "*.cell")); len(cells) != len(spec.Buffers) {
		t.Fatalf("%d .cell entries persisted, want %d", len(cells), len(spec.Buffers))
	}
	for _, old := range olds {
		if _, err := os.Stat(old); err != nil {
			t.Errorf("earlier entry %s disturbed: %v", old, err)
		}
	}
	st1.Close()

	_, c2 := newTestService(t, Config{Workers: 2, Store: openStore(t, dir)})
	if _, err := c2.Run(ctx, RunRequest{Spec: json.RawMessage(fastSpec)}); err != nil {
		t.Fatal(err)
	}
	if m, _ := c2.Metrics(ctx); m.SimsCompleted != 0 || m.DiskHits != uint64(len(spec.Buffers)) {
		t.Errorf("restart over the upgraded dir: sims %d, disk hits %d; want 0, %d", m.SimsCompleted, m.DiskHits, len(spec.Buffers))
	}
}

// TestPromotedSweepWireIdentical pins promotion at the wire: a sweep
// whose every cell was demoted by the LRU and promoted back from disk
// serves cells and summary JSON byte-identical to the same sweep served
// from the memory of the simulation that produced it. pfSpec's workload
// fills the metrics map.
func TestPromotedSweepWireIdentical(t *testing.T) {
	ctx := context.Background()
	srv, c := newTestService(t, Config{Workers: 2, CacheCells: 1, Store: openStore(t, t.TempDir())})
	req := SweepRequest{Spec: json.RawMessage(pfSpec), Seeds: []uint64{1, 2, 3}}
	body := func(id string) (cells, summary string) {
		t.Helper()
		code, b := wireExchange(t, srv, http.MethodGet, "/sweeps/"+id, "")
		var v struct {
			Cells   json.RawMessage `json:"cells"`
			Summary json.RawMessage `json:"summary"`
		}
		if code != http.StatusOK || json.Unmarshal([]byte(b), &v) != nil {
			t.Fatalf("GET /sweeps/%s: %d %s", id, code, b)
		}
		return string(v.Cells), string(v.Summary)
	}

	first, err := c.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	memCells, memSummary := body(first.ID)
	if !strings.Contains(memCells, `"tx": `) {
		t.Fatalf("pfSpec cells carry no metrics: %s", memCells)
	}
	// Another sweep pushes every cell of the first out of the one-cell LRU.
	if _, err := c.Sweep(ctx, SweepRequest{Spec: json.RawMessage(pfSpec), Seeds: []uint64{4}}); err != nil {
		t.Fatal(err)
	}
	m0, _ := c.Metrics(ctx)
	again, err := c.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := c.Metrics(ctx)
	if hits := m1.DiskHits - m0.DiskHits; hits != uint64(len(again.Cells)) || m1.SimsCompleted != m0.SimsCompleted {
		t.Fatalf("re-sweep promoted %d of %d cells and simulated %d; want all promoted, none simulated",
			hits, len(again.Cells), m1.SimsCompleted-m0.SimsCompleted)
	}
	diskCells, diskSummary := body(again.ID)
	if diskCells != memCells {
		t.Errorf("promoted cells differ from memory-served cells:\n%s\n%s", memCells, diskCells)
	}
	if diskSummary != memSummary {
		t.Errorf("promoted summary differs from memory-served summary:\n%s\n%s", memSummary, diskSummary)
	}
}
