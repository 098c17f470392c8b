package obs

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// OpStats is the per-operator accumulator of a query trace: rows emitted
// and inclusive wall time (each operator's time includes its children,
// matching EXPLAIN ANALYZE convention elsewhere). Scan workers may feed
// one OpStats concurrently, so the fields are atomics. A nil *OpStats is
// valid everywhere and records nothing — that is the tracing-off path.
type OpStats struct {
	rows    atomic.Int64
	nanos   atomic.Int64
	batches atomic.Int64
	touched atomic.Bool
	note    atomic.Value // string; execution-time annotation, e.g. "spilled=3 parts"
}

// Observe records one Next() call: d of inclusive time and, when counted
// is true, one emitted row. Nil-safe.
func (o *OpStats) Observe(counted bool, d time.Duration) {
	if o == nil {
		return
	}
	o.touched.Store(true)
	if counted {
		o.rows.Add(1)
	}
	o.nanos.Add(int64(d))
}

// AddSince folds the time elapsed since start into the operator (used to
// attribute eager work, e.g. index RID collection at iterator build).
// Nil-safe; a zero start is ignored.
func (o *OpStats) AddSince(start time.Time) {
	if o == nil || start.IsZero() {
		return
	}
	o.touched.Store(true)
	o.nanos.Add(int64(time.Since(start)))
}

// ObserveBatch records one NextChunk() call of a batched operator: d of
// inclusive time, one batch, and the rows the chunk carries. This keeps
// EXPLAIN ANALYZE row counts exact under vectorized execution — a batch
// call is not one row — and feeds the rows-per-batch actuals. Nil-safe.
func (o *OpStats) ObserveBatch(rows int64, d time.Duration) {
	if o == nil {
		return
	}
	o.touched.Store(true)
	o.rows.Add(rows)
	o.batches.Add(1)
	o.nanos.Add(int64(d))
}

// Batches reports batches emitted so far (0 for row operators). Nil-safe.
func (o *OpStats) Batches() int64 {
	if o == nil {
		return 0
	}
	return o.batches.Load()
}

// AddRows folds n emitted rows into the operator. Nil-safe.
func (o *OpStats) AddRows(n int64) {
	if o == nil {
		return
	}
	o.touched.Store(true)
	o.rows.Add(n)
}

// Rows reports rows emitted so far. Nil-safe.
func (o *OpStats) Rows() int64 {
	if o == nil {
		return 0
	}
	return o.rows.Load()
}

// Elapsed reports inclusive time accumulated so far. Nil-safe.
func (o *OpStats) Elapsed() time.Duration {
	if o == nil {
		return 0
	}
	return time.Duration(o.nanos.Load())
}

// Notef attaches an execution-time annotation to the operator, rendered
// after the actuals in EXPLAIN ANALYZE (e.g. "spilled=3 parts",
// "groups=117"). The last call wins. Nil-safe.
func (o *OpStats) Notef(format string, args ...any) {
	if o == nil {
		return
	}
	o.touched.Store(true)
	o.note.Store(fmt.Sprintf(format, args...))
}

// Note returns the operator's annotation, or "" when none was set.
// Nil-safe.
func (o *OpStats) Note() string {
	if o == nil {
		return ""
	}
	if s, ok := o.note.Load().(string); ok {
		return s
	}
	return ""
}

// Touched reports whether the operator ever executed. Plan lines whose
// operator never ran (e.g. one the statement stopped before reaching)
// render without actuals. Nil-safe.
func (o *OpStats) Touched() bool {
	return o != nil && o.touched.Load()
}

// TraceLine is one rendered plan line, optionally backed by an operator.
type TraceLine struct {
	Text string
	Op   *OpStats
}

// QueryTrace collects the plan lines of one query and, when timing is
// on, the per-operator actuals. A nil *QueryTrace is valid and records
// nothing, so call sites thread it unconditionally. Lines are appended
// by the planning walk and by lazily-built join inputs; both happen on
// the caller's goroutine, so no lock is needed.
type QueryTrace struct {
	timing bool
	lines  []*TraceLine
}

// NewQueryTrace returns a trace collector. With timing false it only
// gathers plan text (the plain EXPLAIN path); with timing true each
// Linef also allocates an OpStats for actual rows/timings.
func NewQueryTrace(timing bool) *QueryTrace {
	return &QueryTrace{timing: timing}
}

// Timing reports whether this trace collects operator actuals. Nil-safe.
func (t *QueryTrace) Timing() bool { return t != nil && t.timing }

// Linef appends a plan line and returns its operator handle (nil unless
// timing is on). Nil-safe: on a nil trace it records nothing and returns
// nil, keeping the untraced path allocation-free.
func (t *QueryTrace) Linef(format string, args ...any) *OpStats {
	if t == nil {
		return nil
	}
	l := &TraceLine{Text: fmt.Sprintf(format, args...)}
	if t.timing {
		l.Op = &OpStats{}
	}
	t.lines = append(t.lines, l)
	return l.Op
}

// Plainf appends a plan line with no operator even when timing is on
// (e.g. the DISTINCT folded into the result sink). Nil-safe.
func (t *QueryTrace) Plainf(format string, args ...any) {
	if t == nil {
		return
	}
	t.lines = append(t.lines, &TraceLine{Text: fmt.Sprintf(format, args...)})
}

// Text renders the bare plan lines (the plain EXPLAIN output).
func (t *QueryTrace) Text() string {
	if t == nil {
		return ""
	}
	parts := make([]string, len(t.lines))
	for i, l := range t.lines {
		parts[i] = l.Text
	}
	return strings.Join(parts, "\n")
}

// Render renders the plan lines; with actuals true, every line whose
// operator executed gets "(actual rows=N time=D)" appended. Durations
// are rounded to the microsecond to keep the tree readable.
func (t *QueryTrace) Render(actuals bool) string {
	if t == nil {
		return ""
	}
	if !actuals {
		return t.Text()
	}
	parts := make([]string, len(t.lines))
	for i, l := range t.lines {
		switch {
		case l.Op.Touched() && l.Op.Batches() > 0:
			// Batched operators additionally report how full their chunks
			// ran; the rows/batch average is the vectorization actuals.
			b := l.Op.Batches()
			parts[i] = fmt.Sprintf("%s (actual rows=%d time=%s batches=%d rows/batch=%d)",
				l.Text, l.Op.Rows(), l.Op.Elapsed().Round(time.Microsecond), b, l.Op.Rows()/b)
		case l.Op.Touched():
			parts[i] = fmt.Sprintf("%s (actual rows=%d time=%s)",
				l.Text, l.Op.Rows(), l.Op.Elapsed().Round(time.Microsecond))
		default:
			parts[i] = l.Text
		}
		// Execution-time annotations (spill/group counts) render after the
		// actuals so the pinned "(actual ...)" formats stay byte-stable.
		if n := l.Op.Note(); n != "" {
			parts[i] += " (" + n + ")"
		}
	}
	return strings.Join(parts, "\n")
}

// OperatorSummary is one executed operator in compact form, for the
// slow-query log.
type OperatorSummary struct {
	Op     string  `json:"op"`
	Rows   int64   `json:"rows"`
	TimeMS float64 `json:"time_ms"`
}

// Operators lists the executed operators (untouched plan lines are
// skipped). Nil-safe.
func (t *QueryTrace) Operators() []OperatorSummary {
	if t == nil {
		return nil
	}
	var ops []OperatorSummary
	for _, l := range t.lines {
		if !l.Op.Touched() {
			continue
		}
		ops = append(ops, OperatorSummary{
			Op:     strings.TrimSpace(l.Text),
			Rows:   l.Op.Rows(),
			TimeMS: float64(l.Op.Elapsed()) / float64(time.Millisecond),
		})
	}
	return ops
}
