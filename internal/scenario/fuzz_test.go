package scenario_test

import (
	"encoding/json"
	"slices"
	"testing"

	"react/internal/scenario"
)

// cellAddrs returns every cell address of an accepted spec at the default
// run options.
func cellAddrs(t *testing.T, sp *scenario.Spec) []string {
	t.Helper()
	addrs := make([]string, len(sp.Buffers))
	for i := range sp.Buffers {
		fp, err := sp.FingerprintCell(i, scenario.RunOptions{})
		if err != nil {
			t.Fatalf("accepted spec has no address for cell %d: %v", i, err)
		}
		addrs[i] = fp
	}
	return addrs
}

// FuzzParseSpec: inline specs are reactd's main trust boundary (POST
// bodies) and reach ParseSpec → Validate → FingerprintCell. No input may
// panic, an accepted spec must still validate and address every cell, and
// re-encoding it must parse back to the same cell addresses. Seeds live in
// testdata/fuzz/FuzzParseSpec and cover the react, static and checkpoint
// blocks.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := scenario.ParseSpec(data)
		if err != nil {
			return
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("ParseSpec accepted a spec Validate rejects: %v", err)
		}
		addrs := cellAddrs(t, sp)
		again, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		back, err := scenario.ParseSpec(again)
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v\n%s", err, again)
		}
		if got := cellAddrs(t, back); !slices.Equal(got, addrs) {
			t.Fatalf("re-encoded spec moved its cell addresses:\n got %v\nwant %v\n%s", got, addrs, again)
		}
	})
}
