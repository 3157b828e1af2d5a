package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the recorded outputs in testdata/")

// TestFiguresMatchRecorded runs -fig 1, 6 and background at seed 1 and
// compares stdout verbatim, and every CSV series by SHA-256 (a
// sha256sum-format listing of -out), against the outputs recorded in
// testdata/. -fig 7 is left out: the scenario package's paper-grid goldens
// pin every cell it reads.
func TestFiguresMatchRecorded(t *testing.T) {
	for _, c := range []struct {
		fig    string
		series bool // writes CSV series under -out
	}{{"1", true}, {"6", true}, {"background", false}} {
		t.Run(c.fig, func(t *testing.T) {
			recorded, err := filepath.Abs(filepath.Join("testdata", "fig"+c.fig))
			if err != nil {
				t.Fatal(err)
			}
			// Run inside a scratch directory with a relative -out, so the
			// paths printed on stdout are the same on every machine.
			t.Chdir(t.TempDir())
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-fig", c.fig, "-seed", "1", "-out", "figs"}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			checkRecorded(t, recorded+".stdout", stdout.String())
			if c.series {
				sums, err := csvSums("figs")
				if err != nil {
					t.Fatal(err)
				}
				checkRecorded(t, recorded+".sha256", sums)
			}
		})
	}
}

// csvSums lists the SHA-256 of every CSV file in dir, one sha256sum-format
// line per file in name order.
func csvSums(dir string) (string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%x  %s\n", sha256.Sum256(data), filepath.ToSlash(f))
	}
	return b.String(), nil
}

// checkRecorded compares got with the recorded file, or rewrites the file
// under -update.
func checkRecorded(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the recorded output:\n--- got\n%s--- want\n%s", filepath.Base(path), got, want)
	}
}

// TestUnknownFigure: a bad -fig is a usage error (exit 2), not a run.
func TestUnknownFigure(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "9"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown figure "9"`) {
		t.Errorf("stderr %q", stderr.String())
	}
}
