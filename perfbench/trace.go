package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"react/internal/obs"
)

// tracer records the benchmark's spans, and the reactd span trees merged
// under them, as one trace in an obs.SpanStore. While disabled it records
// nothing and costs one branch per call.
type tracer struct {
	on    atomic.Bool
	store *obs.SpanStore
	tid   obs.TraceID
}

// tracerSpans bounds the one trace a run records; spans beyond it are
// dropped, which write reports as an error.
const tracerSpans = 1 << 20

func newTracer() *tracer {
	return &tracer{store: obs.NewSpanStore(1, tracerSpans), tid: obs.NewTraceID()}
}

// start opens a span named layer.what under parent (nil = a root) and
// returns it, or nil when tracing is off; ending a nil span is a no-op.
func (t *tracer) start(parent *obs.ActiveSpan, name string) *obs.ActiveSpan {
	if !t.on.Load() {
		return nil
	}
	return t.store.Start(obs.SpanContext{TraceID: t.tid, SpanID: parent.Context().SpanID}, name, "", nil)
}

func (t *tracer) enabled() bool { return t.on.Load() }

func (t *tracer) setOn(on bool) { t.on.Store(on) }

// addRemote merges reactd span trees under parent, renaming each span
// reactd.<name> so layerOf can place it.
func (t *tracer) addRemote(parent *obs.ActiveSpan, roots []*obs.SpanTree) {
	var spans []obs.Span
	var walk func(p string, n *obs.SpanTree)
	walk = func(p string, n *obs.SpanTree) {
		if n.EndUnixNs == 0 || n.Name == "sim" {
			// Instant events and open spans have no extent; per-cell sim
			// spans all cover their batch's one lockstep pass, which the
			// batch span already accounts to the engine.
			return
		}
		sp := n.Span
		sp.TraceID, sp.ParentID, sp.Name = t.tid.String(), p, "reactd."+n.Name
		spans = append(spans, sp)
		for _, c := range n.Children {
			walk(sp.SpanID, c)
		}
	}
	for _, r := range roots {
		walk(parent.Context().SpanID.String(), r)
	}
	t.store.AddRemote(spans)
}

// remoteLayer maps reactd span names onto layers: view roots belong to the
// service, a batch span is one lockstep engine pass, a peer span is
// cluster forwarding.
func remoteLayer(name string) string {
	switch name {
	case "batch":
		return "sim"
	case "peer":
		return "peer"
	}
	return "service"
}

// layerOf is the layer a span belongs to: remoteLayer for a merged reactd
// span, otherwise the prefix of the benchmark span's name.
func layerOf(name string) string {
	if rest, ok := strings.CutPrefix(name, "reactd."); ok {
		return remoteLayer(rest)
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfLayers are the layers self time is reported for.
var selfLayers = []string{"runner", "scenario", "sim", "service", "peer", "client"}

// selfTimes returns each layer's self time: the span durations minus the
// part of each span's interval its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	spans, _ := t.store.Spans(t.tid)
	kids := map[string][]obs.Span{}
	for _, s := range spans {
		if s.ParentID != "" {
			kids[s.ParentID] = append(kids[s.ParentID], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		if s.EndUnixNs == 0 {
			continue
		}
		d := float64(s.EndUnixNs-s.StartUnixNs)/1e9 - covered(s, kids[s.SpanID])
		out[layerOf(s.Name)] += max(d, 0)
	}
	return out
}

// covered is the length in seconds of the union of the children's
// intervals clipped to the parent's.
func covered(p obs.Span, kids []obs.Span) float64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.StartUnixNs, p.StartUnixNs), min(k.EndUnixNs, p.EndUnixNs)
		if k.EndUnixNs != 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return float64(total) / 1e9
}

// write saves the recorded spans as JSON next to the build outputs. A
// span the store had to drop makes it fail.
func (t *tracer) write(workload string) error {
	spans, dropped := t.store.Spans(t.tid)
	if dropped > 0 {
		return fmt.Errorf("%d benchmark spans dropped", dropped)
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(".bench_build", "spans-"+workload+".json"), data, 0o644)
}

// reportSelf records self time per layer, per unit of traced work.
func reportSelf(r *report, t *tracer, units int) {
	st := t.selfTimes()
	for _, l := range selfLayers {
		v := 0.0
		if units > 0 {
			v = st[l] / float64(units)
		}
		r.set("self_s."+l, v, "s", units, "self time per traced unit")
	}
}
