package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer's public function. Start and End
// are nanoseconds since the trace began; Parent indexes the span that
// caused this one (-1 for a root); Op groups the spans of one operation.
//
// The spans come from this driver, not from inside the program, so a
// parent is the caller in the program's own call graph, not always the
// enclosing wall-clock interval: an operation is run once whole and once
// stage by stage, and the stage spans are hung under the whole one.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// restart moves the start of an open span to now, for a span that had
// to be created before its turn came.
func (t *tracer) restart(id int) { t.spans[id].Start = int64(time.Since(t.t0)) }

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	t.spans[id].End = int64(time.Since(t.t0))
	return t.spans[id].dur()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, op int, fn func() error) (time.Duration, error) {
	id := t.begin(name, parent, op)
	err := fn()
	return t.end(id), err
}

// selfTimes returns, per span, its duration minus the durations of its
// direct children.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

func (t *tracer) durations() []time.Duration {
	d := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		d[i] = s.dur()
	}
	return d
}

// writeJSONL writes one span per line; the line number (from 0) is the
// index Parent refers to.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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

// counters is a flat map of monotone engine counters; delta subtracts an
// earlier reading from a later one, key by key.
type counters map[string]float64

func (later counters) delta(earlier counters) counters {
	d := make(counters, len(later))
	for k, v := range later {
		d[k] = v - earlier[k]
	}
	return d
}

// add accumulates d into c.
func (c counters) add(d counters) {
	for k, v := range d {
		c[k] += v
	}
}
