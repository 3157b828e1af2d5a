package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"react/internal/sim"
)

// encodeCell and decodeCell are the disk tier's payload codec — the one
// place that defines what a persisted cell holds. A payload is
//
//	version  1 byte   cellCodecV
//	Buffer, Workload  uvarint length + bytes each
//	Latency, OnTime, Duration  float64 bits
//	Cycles   zigzag varint
//	MeanCycle  float64 bits
//	Metrics  1 byte: 0 = nil, 1 = present; if present a uvarint count,
//	         then per key in ascending order: uvarint length + key bytes,
//	         float64 bits
//	Ledger   Harvested, Consumed, Clipped, Leaked, SwitchLoss, Overhead
//	         as float64 bits
//	Stored, InitialStored  float64 bits
//
// with every fixed-width value little-endian. Floats travel as their
// IEEE-754 bits, so a grid served from disk is bit-identical to the one
// simulated, -0 and subnormals included; Samples (recordings) do not
// persist. The encoding is canonical: decodeCell accepts only what
// encodeCell writes, so an accepted payload re-encodes to the same bytes.
const cellCodecV = 1

// metricMinBytes is the smallest encoding of one metric: an empty key's
// length byte plus its float.
const metricMinBytes = 1 + 8

// encodeCell encodes res for the disk tier. Like the JSON encoding the
// wire uses, it refuses NaN and ±Inf, so a cell the wire cannot carry is
// never persisted either.
func encodeCell(res sim.Result) ([]byte, error) {
	l := res.Ledger
	floats := [...]float64{
		res.Latency, res.OnTime, res.Duration, res.MeanCycle,
		l.Harvested, l.Consumed, l.Clipped, l.Leaked, l.SwitchLoss, l.Overhead,
		res.Stored, res.InitialStored,
	}
	for _, v := range floats {
		if !finite(v) {
			return nil, fmt.Errorf("cell codec: unsupported value %v", v)
		}
	}
	keys := make([]string, 0, len(res.Metrics))
	// Version, flag, two string lengths, Cycles and the metric count.
	size := 2 + 4*binary.MaxVarintLen64 + len(res.Buffer) + len(res.Workload) + 8*len(floats)
	for k, v := range res.Metrics {
		if !finite(v) {
			return nil, fmt.Errorf("cell codec: unsupported value %v for metric %q", v, k)
		}
		keys = append(keys, k)
		size += binary.MaxVarintLen64 + len(k) + 8
	}
	slices.Sort(keys)

	b := make([]byte, 0, size)
	b = append(b, cellCodecV)
	b = appendString(b, res.Buffer)
	b = appendString(b, res.Workload)
	b = appendFloat(b, res.Latency)
	b = appendFloat(b, res.OnTime)
	b = appendFloat(b, res.Duration)
	b = binary.AppendVarint(b, int64(res.Cycles))
	b = appendFloat(b, res.MeanCycle)
	if res.Metrics == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = binary.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			b = appendString(b, k)
			b = appendFloat(b, res.Metrics[k])
		}
	}
	for _, v := range floats[4:] { // Ledger, Stored, InitialStored
		b = appendFloat(b, v)
	}
	return b, nil
}

// decodeCell decodes a payload encodeCell wrote. Every length is checked
// against the bytes that remain, and trailing bytes are an error.
func decodeCell(payload []byte) (sim.Result, error) {
	r := cellReader{b: payload}
	if v := r.byte(); r.err == nil && v != cellCodecV {
		return sim.Result{}, fmt.Errorf("cell codec: version %d, want %d", v, cellCodecV)
	}
	var res sim.Result
	res.Buffer = r.string()
	res.Workload = r.string()
	res.Latency = r.float()
	res.OnTime = r.float()
	res.Duration = r.float()
	res.Cycles = r.int()
	res.MeanCycle = r.float()
	switch r.byte() {
	case 0:
	case 1:
		n := r.uvarint()
		if n > uint64(len(r.b)/metricMinBytes) {
			r.fail("metric count exceeds the payload")
			break
		}
		res.Metrics = make(map[string]float64, n)
		prev := ""
		for i := uint64(0); i < n && r.err == nil; i++ {
			k := r.string()
			if i > 0 && k <= prev {
				r.fail("metric keys not strictly ascending")
			}
			prev = k
			res.Metrics[k] = r.float()
		}
	default:
		r.fail("bad metrics flag")
	}
	l := &res.Ledger
	for _, p := range [...]*float64{
		&l.Harvested, &l.Consumed, &l.Clipped, &l.Leaked, &l.SwitchLoss, &l.Overhead,
		&res.Stored, &res.InitialStored,
	} {
		*p = r.float()
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail("trailing bytes")
	}
	if r.err != nil {
		return sim.Result{}, r.err
	}
	return res, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// cellReader consumes a payload front to back. The first failure sticks:
// later reads return zero values, and err reports it.
type cellReader struct {
	b   []byte
	err error
}

func (r *cellReader) fail(what string) {
	if r.err == nil {
		r.err = errors.New("cell codec: " + what)
	}
	r.b = nil
}

func (r *cellReader) byte() byte {
	if len(r.b) < 1 {
		r.fail("truncated payload")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *cellReader) float() float64 {
	if len(r.b) < 8 {
		r.fail("truncated payload")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	if !finite(v) {
		r.fail("non-finite float")
		return 0
	}
	return v
}

// uvarint reads a minimally encoded uvarint: an overlong encoding (a
// final zero byte after a continuation) would not re-encode to itself.
func (r *cellReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int reads a zigzag varint (binary.AppendVarint) that fits an int.
func (r *cellReader) int() int {
	u := r.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	if int64(int(v)) != v {
		r.fail("varint overflows int")
		return 0
	}
	return int(v)
}

func (r *cellReader) string() string {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail("truncated payload")
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}
