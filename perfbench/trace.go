package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one call into a layer, recorded from the benchmark side of
// the call. Start and End are offsets from the tracer's creation.
// Excludes lists spans that measured, outside this span, a replica of
// work this span also did inside a call the benchmark cannot open (the
// distance matrix inside SelectPartition, the per-group runs inside
// RunOnPartition); their durations are subtracted from this span's self
// time, so each piece of work is attributed once.
type Span struct {
	ID       int           `json:"id"`
	Name     string        `json:"name"`
	Op       int           `json:"op"`
	Parent   int           `json:"parent"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
	Excludes []int         `json:"excludes,omitempty"`
}

// Duration is the span's wall time.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. It is safe for
// concurrent use.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty in-memory trace.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its ID; parent is -1 for a root.
func (tr *Tracer) Begin(name string, op, parent int) int {
	now := time.Since(tr.t0)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans)
	tr.spans = append(tr.spans, Span{ID: id, Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return id
}

// End closes span id.
func (tr *Tracer) End(id int) {
	now := time.Since(tr.t0)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[id].End = now
}

// Exclude subtracts the durations of the given spans from span id's
// self time.
func (tr *Tracer) Exclude(id int, replicas ...int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[id].Excludes = append(tr.spans[id].Excludes, replicas...)
}

// Add records an already-measured interval as a closed span.
func (tr *Tracer) Add(name string, op, parent int, start, end time.Time) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans)
	tr.spans = append(tr.spans, Span{ID: id, Name: name, Op: op, Parent: parent,
		Start: start.Sub(tr.t0), End: end.Sub(tr.t0)})
	return id
}

// Spans returns a copy of every closed span.
func (tr *Tracer) Spans() []Span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]Span, 0, len(tr.spans))
	for _, s := range tr.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// OpSpans returns a copy of op's closed spans.
func (tr *Tracer) OpSpans(op int) []Span {
	var out []Span
	for _, s := range tr.Spans() {
		if s.Op == op {
			out = append(out, s)
		}
	}
	return out
}

// WriteFile writes the spans as one JSON array.
func (tr *Tracer) WriteFile(path string) error {
	raw, err := json.Marshal(tr.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes returns each span's self time, keyed by span ID: its
// duration minus the part of its interval that its children cover
// (overlapping children count once) minus the durations of the spans it
// excludes. Children are clipped to the parent's interval.
func selfTimes(spans []Span) map[int]time.Duration {
	byID := make(map[int]Span, len(spans))
	children := make(map[int][]Span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self := s.Duration() - covered(s, children[s.ID])
		for _, x := range s.Excludes {
			if e, ok := byID[x]; ok {
				self -= e.Duration()
			}
		}
		out[s.ID] = self
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			cur, open = v, true
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if open {
		total += cur.b - cur.a
	}
	return total
}
