package sql

import (
	"sort"
	"time"

	"xomatiq/internal/obs"
	"xomatiq/internal/value"
)

// valSrc is a precompiled value source for one output or key expression
// over a chunk row: a column read straight from the column vectors (the
// fast path), a constant literal, or a general expression evaluated
// over a scratch row loaded via ReadCols.
type valSrc struct {
	colIdx int // >= 0: read this chunk column directly
	isLit  bool
	lit    value.Value
	expr   Expr
	cols   []int // columns the expr touches; nil means load the full row
}

// compileValSrc classifies e against the input schema once, so the
// per-row evaluation loop never re-resolves columns.
func compileValSrc(e Expr, in *Schema) valSrc {
	switch e := e.(type) {
	case *ColumnRef:
		if i, err := in.Find(e); err == nil {
			return valSrc{colIdx: i}
		}
	case *Literal:
		return valSrc{colIdx: -1, isLit: true, lit: e.Val}
	}
	s := valSrc{colIdx: -1, expr: e}
	if cols, ok := predCols(e, in); ok {
		s.cols = cols
	}
	return s
}

// eval materialises the source for one physical chunk row. row is the
// reused scratch row over the input schema; only expression sources
// touch it (loading just the columns the expression reads).
func (s *valSrc) eval(c *chunk, r int, row Row) (value.Value, error) {
	if s.colIdx >= 0 {
		return c.Value(s.colIdx, r), nil
	}
	if s.isLit {
		return s.lit, nil
	}
	if s.cols != nil {
		c.ReadCols(r, s.cols, row.Values)
	} else {
		c.ReadRow(r, row.Values)
	}
	return Eval(s.expr, row)
}

// sortRow is one buffered result row: output values, sort keys (nil
// when the query has no ORDER BY) and the input sequence number that
// keeps the sort stable.
type sortRow struct {
	vals value.Tuple
	keys value.Tuple
	seq  int64
}

// topKEligible reports whether the query's ORDER BY can run as a
// bounded top-K heap: a LIMIT caps the interesting prefix and DISTINCT
// is absent (dedup-then-sort semantics need every row).
func topKEligible(sel *Select) bool {
	return len(sel.OrderBy) > 0 && sel.Limit >= 0 && !sel.Distinct
}

// resultSink terminates the SELECT pipeline: it absorbs output rows
// from project or the hash aggregate and applies DISTINCT, ORDER BY
// and LIMIT. Three modes, chosen at plan time:
//
//   - top-K: ORDER BY + LIMIT without DISTINCT keeps a bounded max-heap
//     of the best limit rows — the table never materialises.
//   - sort: any other ORDER BY buffers every row and sorts them once
//     at the end.
//   - plain: no ORDER BY accumulates in arrival order and stops early
//     once LIMIT rows are kept.
//
// DISTINCT always dedups streamingly at push (first occurrence wins,
// matching dedup-before-sort semantics), which is what makes the plain
// early exit safe even for SELECT DISTINCT ... LIMIT.
type resultSink struct {
	names []string
	desc  []bool // per-key descending flags; nil when no ORDER BY
	limit int    // -1 when absent; the top-K heap's bound

	distinct bool
	seen     map[string]struct{}
	encBuf   []byte

	topK bool

	heap []sortRow // top-K mode: max-heap, worst retained row at [0]

	buf []sortRow // sort mode: every row, sorted at finish

	rows []value.Tuple // plain mode

	seq    int64
	filled bool // plain mode reached LIMIT (or top-K LIMIT 0)

	sortOp    *obs.OpStats
	sortStart time.Time
}

func newResultSink(sel *Select, names []string, spec *orderSpec, sortOp *obs.OpStats) *resultSink {
	s := &resultSink{
		names:     names,
		limit:     sel.Limit,
		distinct:  sel.Distinct,
		sortOp:    sortOp,
		sortStart: time.Now(),
	}
	if s.distinct {
		s.seen = map[string]struct{}{}
	}
	if spec != nil {
		s.desc = spec.desc
		if topKEligible(sel) {
			s.topK = true
			s.filled = s.limit == 0
		}
	}
	return s
}

// less orders rows by the sort keys (per-key descending flags applied),
// breaking ties by arrival order — a strict total order, so plain
// sort.Slice reproduces the old stable sort exactly.
func (s *resultSink) less(a, b *sortRow) bool {
	for i, d := range s.desc {
		c := value.Compare(a.keys[i], b.keys[i])
		if d {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	return a.seq < b.seq
}

// keysBeatRoot reports whether a candidate with the given keys would
// displace the heap's worst retained row. Equal keys lose: the
// candidate arrived later, so the stable order keeps the incumbent.
func (s *resultSink) keysBeatRoot(keys value.Tuple) bool {
	root := &s.heap[0]
	for i, d := range s.desc {
		c := value.Compare(keys[i], root.keys[i])
		if d {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	return false
}

// wouldAccept reports whether a row with the given sort keys would be
// retained, letting project skip materialising the output values of
// rows the top-K heap would discard. Always true outside top-K mode.
func (s *resultSink) wouldAccept(keys value.Tuple) bool {
	if !s.topK {
		return true
	}
	if s.filled {
		return false
	}
	return len(s.heap) < s.limit || s.keysBeatRoot(keys)
}

// full reports that no future push can change the result, so producers
// may stop early. Only the plain mode (and a degenerate LIMIT 0 top-K)
// ever fills: a live top-K heap can always be improved by later rows.
func (s *resultSink) full() bool { return s.filled }

// push absorbs one output row. keys must be non-nil exactly when the
// query has an ORDER BY; both tuples are retained, so callers hand over
// freshly built (or cloned) tuples.
func (s *resultSink) push(vals, keys value.Tuple) {
	if s.filled {
		return
	}
	if s.distinct {
		s.encBuf = vals.Encode(s.encBuf[:0])
		if _, dup := s.seen[string(s.encBuf)]; dup {
			return
		}
		s.seen[string(s.encBuf)] = struct{}{}
	}
	row := sortRow{vals: vals, keys: keys, seq: s.seq}
	s.seq++
	switch {
	case s.topK:
		s.offer(row)
	case s.desc != nil:
		s.buf = append(s.buf, row)
	default:
		s.rows = append(s.rows, row.vals)
		if s.limit >= 0 && len(s.rows) >= s.limit {
			s.filled = true
		}
	}
}

// offer inserts a row into the bounded top-K max-heap, displacing the
// worst retained row once the heap is full.
func (s *resultSink) offer(row sortRow) {
	if len(s.heap) < s.limit {
		s.heap = append(s.heap, row)
		s.siftUp(len(s.heap) - 1)
		return
	}
	if !s.keysBeatRoot(row.keys) {
		return
	}
	s.heap[0] = row
	s.siftDown(0)
}

// siftUp/siftDown maintain the max-heap property: a parent is not less
// than its children under the sink order, so heap[0] is the worst row.
func (s *resultSink) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(&s.heap[p], &s.heap[i]) {
			return
		}
		s.heap[p], s.heap[i] = s.heap[i], s.heap[p]
		i = p
	}
}

func (s *resultSink) siftDown(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && s.less(&s.heap[big], &s.heap[l]) {
			big = l
		}
		if r < n && s.less(&s.heap[big], &s.heap[r]) {
			big = r
		}
		if big == i {
			return
		}
		s.heap[i], s.heap[big] = s.heap[big], s.heap[i]
		i = big
	}
}

// finish applies the terminal LIMIT and renders the Rows.
func (s *resultSink) finish() *Rows {
	var ordered []sortRow
	switch {
	case s.topK:
		ordered = s.heap
	case s.desc != nil:
		ordered = s.buf
	default:
		rows := s.rows
		if s.limit >= 0 && s.limit < len(rows) {
			rows = rows[:s.limit]
		}
		out := &Rows{Columns: s.names, Rows: rows}
		return out
	}
	sort.Slice(ordered, func(i, j int) bool { return s.less(&ordered[i], &ordered[j]) })
	if s.limit >= 0 && s.limit < len(ordered) {
		ordered = ordered[:s.limit]
	}
	out := &Rows{Columns: s.names}
	for i := range ordered {
		out.Rows = append(out.Rows, ordered[i].vals)
	}
	s.sortOp.AddRows(int64(len(out.Rows)))
	s.sortOp.AddSince(s.sortStart)
	return out
}
