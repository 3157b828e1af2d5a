package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// key returns a well-formed content address derived from s.
func key(s string) string {
	return Prefix + fmt.Sprintf("%x", sha256.Sum256([]byte(s)))
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := key("a")
	payload := []byte(`{"latency":1.25,"metrics":{"blocks":42}}`)
	if _, err := s.Get(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get before put: %v, want ErrNotFound", err)
	}
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip changed the payload: %q != %q", got, payload)
	}
	if s.Len() != 1 || !s.Has(k) {
		t.Errorf("index: len %d has %v, want 1 and true", s.Len(), s.Has(k))
	}
	// Overwrite replaces atomically.
	if err := s.Put(k, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(k); string(got) != "{}" {
		t.Errorf("overwrite not visible: %q", got)
	}
	if s.Len() != 1 {
		t.Errorf("overwrite grew the index to %d", s.Len())
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{key("a"), key("b"), key("c")}
	for i, k := range keys {
		if err := s.Put(k, []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(keys[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("get after close: %v, want ErrClosed", err)
	}

	// Drop a stale tmp file to prove reopen clears it.
	if err := os.WriteFile(filepath.Join(dir, tmpDir, "stale-123"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != len(keys) {
		t.Fatalf("reopened index has %d entries, want %d", s2.Len(), len(keys))
	}
	for i, k := range keys {
		got, err := s2.Get(k)
		if err != nil || string(got) != fmt.Sprintf(`{"i":%d}`, i) {
			t.Errorf("entry %s did not survive reopen: %q, %v", k, got, err)
		}
	}
	if stale, _ := filepath.Glob(filepath.Join(dir, tmpDir, "*")); len(stale) != 0 {
		t.Errorf("stale tmp files survived reopen: %v", stale)
	}
}

func TestDeleteRemovesEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := key("a")
	if err := s.Put(k, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(k); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: %v, want ErrNotFound", err)
	}
	if err := s.Delete(k); err != nil {
		t.Errorf("double delete must be a no-op, got %v", err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 0 {
		t.Errorf("deleted entry resurfaced on reopen (%d indexed)", s2.Len())
	}
}

func TestBadKeysRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{
		"",
		"abcdef0123456789",                  // no prefix
		Prefix + "xyz",                      // not hex
		Prefix + "ABCDEF0123456789",         // uppercase
		Prefix + "ab",                       // too short to shard
		Prefix + "../../../../etc/passwd1f", // traversal attempt
	} {
		if err := s.Put(k, []byte("{}")); err == nil {
			t.Errorf("Put(%q) must reject the key", k)
		}
		if _, err := s.Get(k); err == nil {
			t.Errorf("Get(%q) must reject the key", k)
		}
	}
}

// findEntryFile returns the on-disk path of a stored key.
func findEntryFile(t *testing.T, dir, k string) string {
	t.Helper()
	hex := strings.TrimPrefix(k, Prefix)
	path := filepath.Join(dir, cellsDir, hex[:2], hex+cellExt)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("entry file for %s missing: %v", k, err)
	}
	return path
}

func TestCorruptEntriesQuarantined(t *testing.T) {
	for name, corrupt := range map[string]func(path string) error{
		"truncated": func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, data[:len(data)/2], 0o644)
		},
		"bit flip in payload": func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			// Flip a digit inside the payload: still valid JSON, wrong CRC.
			i := bytes.Index(data, []byte(`"blocks":42`))
			if i < 0 {
				return errors.New("payload marker missing")
			}
			data[i+len(`"blocks":4`)] = '7'
			return os.WriteFile(path, data, 0o644)
		},
		"emptied": func(path string) error {
			return os.WriteFile(path, nil, 0o644)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			k := key("victim")
			if err := s.Put(k, []byte(`{"metrics":{"blocks":42}}`)); err != nil {
				t.Fatal(err)
			}
			path := findEntryFile(t, dir, k)
			if err := corrupt(path); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get(k); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("get of corrupt entry: %v, want ErrCorrupt", err)
			}
			if s.Quarantined() != 1 {
				t.Errorf("quarantined %d, want 1", s.Quarantined())
			}
			// The evidence moved aside; the address reads as a plain miss and
			// is writable again.
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupt entry still servable on disk")
			}
			q, _ := filepath.Glob(filepath.Join(dir, quarantineDir, "*"+cellExt))
			if len(q) != 1 {
				t.Errorf("quarantine holds %d files, want 1", len(q))
			}
			if _, err := s.Get(k); !errors.Is(err, ErrNotFound) {
				t.Fatalf("second get: %v, want ErrNotFound", err)
			}
			if err := s.Put(k, []byte(`{"metrics":{"blocks":42}}`)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get(k); err != nil {
				t.Fatalf("re-put after quarantine: %v", err)
			}
		})
	}
}

// TestMisfiledEntryNeverServed: an entry whose envelope key disagrees with
// its address (a hand-copied or renamed file) is quarantined, not served.
func TestMisfiledEntryNeverServed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := key("a"), key("b")
	if err := s.Put(ka, []byte(`{"who":"a"}`)); err != nil {
		t.Fatal(err)
	}
	// Copy a's file into b's slot.
	data, err := os.ReadFile(findEntryFile(t, dir, ka))
	if err != nil {
		t.Fatal(err)
	}
	hexB := strings.TrimPrefix(kb, Prefix)
	pathB := filepath.Join(dir, cellsDir, hexB[:2], hexB+cellExt)
	if err := os.MkdirAll(filepath.Dir(pathB), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pathB, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get(kb); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("misfiled entry served: %v, want ErrCorrupt", err)
	}
	if got, err := s2.Get(ka); err != nil || string(got) != `{"who":"a"}` {
		t.Fatalf("the original entry must be unaffected: %q, %v", got, err)
	}
}

func TestConcurrentPutsAndGets(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := key(fmt.Sprintf("cell-%d", i))
			payload := []byte(fmt.Sprintf(`{"i":%d}`, i))
			if err := s.Put(k, payload); err != nil {
				t.Error(err)
				return
			}
			got, err := s.Get(k)
			if err != nil || !bytes.Equal(got, payload) {
				t.Errorf("cell %d: %q, %v", i, got, err)
			}
		}()
	}
	wg.Wait()
	if s.Len() != n {
		t.Errorf("index has %d entries, want %d", s.Len(), n)
	}
}

// FuzzStoreGet writes arbitrary bytes as the entry file of one key and
// reads it through a freshly opened store. Get must either return a
// payload whose Put writes exactly those bytes back, or report
// ErrCorrupt with the bytes moved, intact, to quarantine. It must never
// panic. Seeds live in testdata/fuzz/FuzzStoreGet.
func FuzzStoreGet(f *testing.F) {
	k := key("fuzz")
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		hex := strings.TrimPrefix(k, Prefix)
		path := filepath.Join(dir, cellsDir, hex[:2], hex+cellExt)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := s.Get(k)
		switch {
		case err == nil:
			if err := s.Put(k, payload); err != nil {
				t.Fatal(err)
			}
			written, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(written, data) {
				t.Fatalf("served payload %q from an entry Put would not write:\n got file %q\nput writes %q", payload, data, written)
			}
		case errors.Is(err, ErrCorrupt):
			if _, serr := os.Stat(path); !os.IsNotExist(serr) {
				t.Fatalf("corrupt entry still in place: %v", serr)
			}
			q, qerr := os.ReadFile(filepath.Join(dir, quarantineDir, hex+cellExt))
			if qerr != nil || !bytes.Equal(q, data) {
				t.Fatalf("quarantine does not hold the entry: %v", qerr)
			}
			if s.Quarantined() != 1 || s.Has(k) {
				t.Fatalf("quarantined %d, indexed %v; want 1, false", s.Quarantined(), s.Has(k))
			}
		default:
			t.Fatalf("get: %v, want a payload or ErrCorrupt", err)
		}
	})
}
