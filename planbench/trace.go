package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// plan operation (or one probe) share a trace id; a root span has parent
// -1. A derived span's interval was not timed around a call: it is read
// from the solve's own metrics (milp wall time inside Planner.Solve).
type span struct {
	Trace   int    `json:"trace"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	Probe   bool   `json:"probe,omitempty"`
	Derived bool   `json:"derived,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndUS-s.StartUS) * time.Microsecond }

// tracer keeps the spans of a traced run in memory, plus the per-layer
// samples and sums that are not span durations. A nil tracer records
// nothing, so untraced passes pay one pointer test per call site.
// The benchmark's callers are a single closed loop, so a stack of open
// spans gives every span its parent.
type tracer struct {
	t0      time.Time
	spans   []span
	open    []int
	trace   int
	samples map[string][]float64
	sums    map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}, sums: map[string]float64{}}
}

func (t *tracer) now() int64 { return time.Since(t.t0).Microseconds() }

// root opens the root span of a new trace; close it with end.
func (t *tracer) root(name string) int {
	if t == nil {
		return -1
	}
	t.trace++
	return t.begin("bench."+name, "bench", false)
}

// begin opens a span under the innermost open span.
func (t *tracer) begin(name, layer string, probe bool) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Trace: t.trace, ID: id, Parent: parent, Name: name, Layer: layer, StartUS: t.now(), Probe: probe})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndUS = t.now()
	t.open = t.open[:len(t.open)-1]
}

// call times f as a span of the given layer.
func (t *tracer) call(name, layer string, f func()) {
	id := t.begin(name, layer, false)
	f()
	t.end(id)
}

// probe is call for a call that only the traced run makes.
func (t *tracer) probe(name, layer string, f func()) {
	id := t.begin(name, layer, true)
	f()
	t.end(id)
}

// derived records a child of span parent covering d from its start.
func (t *tracer) derived(parent int, name, layer string, d time.Duration) {
	if t == nil {
		return
	}
	p := t.spans[parent]
	t.spans = append(t.spans, span{
		Trace: p.Trace, ID: len(t.spans), Parent: parent, Name: name, Layer: layer,
		StartUS: p.StartUS, EndUS: p.StartUS + d.Microseconds(), Derived: true,
	})
}

// sample appends one observation of a per-layer quantity.
func (t *tracer) sample(name string, v float64) {
	if t != nil {
		t.samples[name] = append(t.samples[name], v)
	}
}

// add accumulates a per-layer sum.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.sums[name] += v
	}
}

// durations returns the durations in ms of the spans with this name,
// leaving out probe-only calls unless probes is set.
func (t *tracer) durations(name string, probes bool) []float64 {
	var v []float64
	for _, s := range t.spans {
		if s.Name == name && (probes || !s.Probe) {
			v = append(v, float64(s.dur())/float64(time.Millisecond))
		}
	}
	return v
}

// selfTimes returns each layer's self time: a span's duration minus the
// part its children cover (children never overlap: the caller is
// sequential), summed per layer. Derived spans are clipped to their
// parent.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += min(s.dur(), t.spans[s.Parent].dur())
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		d := s.dur()
		if s.Parent >= 0 {
			d = min(d, t.spans[s.Parent].dur())
		}
		self[s.Layer] += max(0, d-child[i])
	}
	return self
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
