package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the recorded outputs in testdata/")

// TestTablesMatchRecorded runs -table 1, 3 and overhead at seed 1 and
// compares stdout verbatim against the outputs recorded in testdata/. The
// grid tables (2, 4, 5, fig7) are left out: the scenario package's
// paper-grid goldens pin every cell they read.
func TestTablesMatchRecorded(t *testing.T) {
	for _, table := range []string{"1", "3", "overhead"} {
		t.Run(table, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-table", table, "-seed", "1"}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			path := filepath.Join("testdata", "table"+table+".stdout")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("table %s differs from the recorded output:\n--- got\n%s--- want\n%s", table, got, want)
			}
		})
	}
}

// TestUnknownTable: a bad -table is a usage error (exit 2), not a run.
func TestUnknownTable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-table", "9"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown table "9"`) {
		t.Errorf("stderr %q", stderr.String())
	}
}
