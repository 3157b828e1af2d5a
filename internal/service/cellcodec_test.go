package service

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"react/internal/buffer"
	"react/internal/sim"
)

// fillResult sets every exported field of a sim.Result except Samples to
// a distinct value by reflection: floats cycle through -0, subnormals and
// ordinary values, so the codec must carry each by its bits. A field of a
// kind this filler does not know fails the test, so a new Result field
// is either persisted (and covered here) or a deliberate decision.
func fillResult(t *testing.T) sim.Result {
	t.Helper()
	var res sim.Result
	floats := []float64{math.Copysign(0, -1), 5e-324, -2.5e-310, math.SmallestNonzeroFloat64 * 7, 1.0 / 3, -1e300}
	n := 0
	var fill func(path string, v reflect.Value)
	fill = func(path string, v reflect.Value) {
		n++
		switch v.Kind() {
		case reflect.Float64:
			if n <= len(floats) {
				v.SetFloat(floats[n-1])
			} else {
				v.SetFloat(float64(n) + 0.125)
			}
		case reflect.Int:
			v.SetInt(int64(-1000 * n))
		case reflect.String:
			v.SetString(strings.Repeat("x", n) + " µF")
		case reflect.Map:
			if v.Type() != reflect.TypeOf(map[string]float64(nil)) {
				t.Fatalf("%s: map type %s not covered", path, v.Type())
			}
			v.Set(reflect.ValueOf(map[string]float64{
				"blocks": float64(n), "": math.Copysign(0, -1), "ω": 4e-320, "tx": -float64(n) / 3,
			}))
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if f := v.Type().Field(i); f.IsExported() {
					fill(path+"."+f.Name, v.Field(i))
				}
			}
		default:
			t.Fatalf("%s: kind %s not covered by the cell codec test", path, v.Kind())
		}
	}
	rv := reflect.ValueOf(&res).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Type().Field(i)
		if f.Name == "Samples" {
			continue // recordings do not persist
		}
		fill(f.Name, rv.Field(i))
	}
	return res
}

// floatBits collects every float in v, depth first, as IEEE-754 bits
// (map values in key order).
func floatBits(v reflect.Value, out []uint64) []uint64 {
	switch v.Kind() {
	case reflect.Float64:
		return append(out, math.Float64bits(v.Float()))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = floatBits(v.Field(i), out)
		}
	case reflect.Map:
		keys := v.MapKeys()
		strs := make([]string, len(keys))
		for i, k := range keys {
			strs[i] = k.String()
		}
		slices.Sort(strs)
		for _, k := range strs {
			out = floatBits(v.MapIndex(reflect.ValueOf(k)), out)
		}
	}
	return out
}

// TestCellCodecComplete: every persisted field of sim.Result survives
// encode→decode, each float bit for bit.
func TestCellCodecComplete(t *testing.T) {
	want := fillResult(t)
	payload, err := encodeCell(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeCell(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip lost fields:\n got %+v\nwant %+v", got, want)
	}
	gb, wb := floatBits(reflect.ValueOf(got), nil), floatBits(reflect.ValueOf(want), nil)
	if !reflect.DeepEqual(gb, wb) {
		t.Fatalf("round trip changed float bits:\n got %x\nwant %x", gb, wb)
	}
	// Samples are stripped, not refused.
	want.Samples = []sim.Sample{{}}
	if again, err := encodeCell(want); err != nil || !bytes.Equal(again, payload) {
		t.Errorf("a recording changed the payload (err %v)", err)
	}
}

// TestCellCodecMetricsNilVersusEmpty: the wire renders a nil metrics map
// as null and an empty one as {}, so the disk tier keeps them apart.
func TestCellCodecMetricsNilVersusEmpty(t *testing.T) {
	for _, m := range []map[string]float64{nil, {}} {
		payload, err := encodeCell(sim.Result{Buffer: "REACT", Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeCell(payload)
		if err != nil {
			t.Fatal(err)
		}
		if (got.Metrics == nil) != (m == nil) || len(got.Metrics) != 0 {
			t.Errorf("metrics %#v decoded as %#v", m, got.Metrics)
		}
	}
}

// TestEncodeCellRefusesNonFinite: NaN and ±Inf never persist, in a field
// or in a metric — the same cells the JSON encoding refused.
func TestEncodeCellRefusesNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := encodeCell(sim.Result{Latency: v}); err == nil {
			t.Errorf("encodeCell accepted latency %v", v)
		}
		if _, err := encodeCell(sim.Result{Ledger: buffer.Ledger{Leaked: v}}); err == nil {
			t.Errorf("encodeCell accepted leaked %v", v)
		}
		if _, err := encodeCell(sim.Result{Metrics: map[string]float64{"blocks": 1, "x": v}}); err == nil {
			t.Errorf("encodeCell accepted metric %v", v)
		}
	}
}

// TestDecodeCellRejectsMalformed: every bound is checked, and only the
// canonical encoding is accepted.
func TestDecodeCellRejectsMalformed(t *testing.T) {
	good, err := encodeCell(sim.Result{Buffer: "REACT", Workload: "DE", Cycles: 3, Metrics: map[string]float64{"a": 1, "b": 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeCell(good); err != nil {
		t.Fatalf("the well-formed payload must decode: %v", err)
	}
	// Offsets into good: version 0, "REACT" 1..6, "DE" 7..9, floats 10..33,
	// Cycles 34, MeanCycle 35..42, metrics flag 43, count 44, "a" 45..46.
	mut := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(good)) }
	cases := map[string][]byte{
		"empty":          {},
		"version":        mut(func(b []byte) []byte { b[0] = cellCodecV + 1; return b }),
		"truncated":      good[:len(good)-1],
		"trailing byte":  append(bytes.Clone(good), 0),
		"string length":  mut(func(b []byte) []byte { b[1] = 0x7f; return b }),
		"metrics flag":   mut(func(b []byte) []byte { b[43] = 2; return b }),
		"metric count":   mut(func(b []byte) []byte { b[44] = 0x7f; return b }),
		"unsorted keys":  mut(func(b []byte) []byte { b[46], b[56] = 'b', 'a'; return b }),
		"duplicate keys": mut(func(b []byte) []byte { b[56] = 'a'; return b }),
		"NaN": mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[10:], math.Float64bits(math.NaN()))
			return b
		}),
		"overlong varint": mut(func(b []byte) []byte {
			// Cycles 3 as the two-byte 0x86 0x00 instead of 0x06.
			return append(append(b[:34:34], 0x86, 0x00), b[35:]...)
		}),
	}
	for name, payload := range cases {
		if _, err := decodeCell(payload); err == nil {
			t.Errorf("%s: decodeCell accepted a malformed payload", name)
		}
	}
	// Nothing shorter than the whole payload decodes.
	for n := range good {
		if _, err := decodeCell(good[:n]); err == nil {
			t.Errorf("decodeCell accepted a %d-byte prefix", n)
		}
	}
}

// FuzzDecodeCell: decodeCell never panics, and whatever it accepts
// re-encodes to exactly the same bytes. Seeds live in
// testdata/fuzz/FuzzDecodeCell.
func FuzzDecodeCell(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		res, err := decodeCell(payload)
		if err != nil {
			return
		}
		again, err := encodeCell(res)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload re-encodes differently:\n got %x\nwant %x", again, payload)
		}
	})
}
