package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer keeps the benchmark's own spans in memory: one per call the
// benchmark makes into a layer (an experiment, a simulation, a trace
// generation, a store operation, an HTTP request, a /metrics scrape). The
// per-layer metrics of a traced run are computed from these spans, and the
// spans are written out once the run ends. A nil *tracer records nothing,
// so the untraced phase runs the same code without the bookkeeping.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int
	spans []spanRec
}

// spanRec is one finished span. Parent is 0 for a root span.
type spanRec struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Attr    string `json:"attr,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	id     int
	parent int
	name   string
	attr   string
	start  time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin starts a span under parent (0 for a root).
func (t *tracer) begin(name, attr string, parent int) openSpan {
	sp := openSpan{parent: parent, name: name, attr: attr, start: time.Now()}
	if t != nil {
		t.mu.Lock()
		t.next++
		sp.id = t.next
		t.mu.Unlock()
	}
	return sp
}

// end finishes sp and returns its duration.
func (t *tracer) end(sp openSpan) time.Duration {
	end := time.Now()
	if t != nil {
		t.add(sp, end)
	}
	return end.Sub(sp.start)
}

// record stores a span whose start and end were taken elsewhere.
func (t *tracer) record(name, attr string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	t.add(openSpan{id: id, parent: parent, name: name, attr: attr, start: start}, end)
}

func (t *tracer) add(sp openSpan, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{
		ID: sp.id, Parent: sp.parent, Name: sp.name, Attr: sp.attr,
		StartNs: sp.start.Sub(t.t0).Nanoseconds(),
		DurNs:   end.Sub(sp.start).Nanoseconds(),
	})
	t.mu.Unlock()
}

// adopt appends o's spans to t's, renumbered after t's and timed from
// t's start.
func (t *tracer) adopt(o *tracer) {
	if t == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	shift := o.t0.Sub(t.t0).Nanoseconds()
	for _, s := range o.spans {
		s.ID += t.next
		if s.Parent != 0 {
			s.Parent += t.next
		}
		s.StartNs += shift
		t.spans = append(t.spans, s)
	}
	t.next += o.next
}

// durations returns the durations in milliseconds of the spans named name
// whose attribute is attr (any attribute when attr is empty).
func (t *tracer) durations(name, attr string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (attr == "" || s.Attr == attr) {
			out = append(out, float64(s.DurNs)/1e6)
		}
	}
	return out
}

// write saves every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
