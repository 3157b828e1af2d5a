package trace

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReadCSV: ReadCSV parses operator-supplied recordings (reactsim
// -tracefile feeds them straight into a scenario spec). No input may
// panic; an accepted trace has a positive, finite sample spacing and
// finite power; and WriteCSV → ReadCSV gives the trace back bit for bit.
// Seeds live in testdata/fuzz/FuzzReadCSV.
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadCSV("fuzz", bytes.NewReader(data))
		if err != nil {
			return
		}
		if !(tr.DT > 0) || math.IsInf(tr.DT, 0) {
			t.Fatalf("accepted a trace with spacing %v", tr.DT)
		}
		for i, p := range tr.Power {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatalf("accepted non-finite power %v at sample %d", p, i)
			}
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV("fuzz", &buf)
		if err != nil {
			t.Fatalf("ReadCSV rejects WriteCSV's output: %v\n%s", err, buf.String())
		}
		if math.Float64bits(back.DT) != math.Float64bits(tr.DT) || len(back.Power) != len(tr.Power) {
			t.Fatalf("round trip changed the trace: DT %v → %v, %d → %d samples", tr.DT, back.DT, len(tr.Power), len(back.Power))
		}
		for i, p := range tr.Power {
			if math.Float64bits(back.Power[i]) != math.Float64bits(p) {
				t.Fatalf("round trip changed sample %d: %v → %v", i, p, back.Power[i])
			}
		}
	})
}
