package sql

import (
	"slices"
	"time"

	"xomatiq/internal/obs"
	"xomatiq/internal/storage/disk"
	"xomatiq/internal/storage/heap"
	"xomatiq/internal/value"
)

// tracedChunkIter is the batch-operator actuals recorder: rows are
// counted per chunk (one NextChunk may emit hundreds of rows), batches
// are counted per call, and time stays inclusive of children — keeping
// EXPLAIN ANALYZE row counts exact under vectorized execution.
type tracedChunkIter struct {
	in batchIter
	op *obs.OpStats
}

func (t *tracedChunkIter) Schema() *Schema { return t.in.Schema() }

func (t *tracedChunkIter) NextChunk() (*chunk, error) {
	start := time.Now()
	c, err := t.in.NextChunk()
	if c != nil && err == nil {
		t.op.ObserveBatch(int64(c.Rows()), time.Since(start))
	} else {
		t.op.Observe(false, time.Since(start))
	}
	return c, err
}

// tracedBatchIf wraps it with an actuals recorder when the plan line
// carries an operator handle; with tracing off (op nil) the iterator
// passes through untouched, so the normal query path pays nothing.
func tracedBatchIf(op *obs.OpStats, it batchIter) batchIter {
	if op == nil {
		return it
	}
	return &tracedChunkIter{in: it, op: op}
}

// chunkScanIter is the batched sequential scan: every NextChunk decodes
// whole heap pages straight into the reused chunk's column vectors until
// the batch target is reached (page granularity, so a dense page may
// overshoot the target slightly). Per-row work is two appends per
// column — no Tuple and no per-TEXT-field string allocation. Page pins
// are held only inside ScanPage, so memory stays O(batch) and a cancel
// fires between rows of a long scan.
type chunkScanIter struct {
	es *execState
	a  *access

	started bool
	cur     disk.PageID
	out     *chunk
	eof     bool
}

func (s *chunkScanIter) Schema() *Schema { return s.a.schema }

func (s *chunkScanIter) NextChunk() (*chunk, error) {
	if s.eof {
		return nil, nil
	}
	if !s.started {
		s.started = true
		s.cur = s.a.t.Heap.FirstPage()
		s.out = newChunk(s.a.schema, s.a.batch)
	}
	s.out.Reset()
	for !s.out.Full() {
		if s.cur == disk.InvalidPage {
			s.eof = true
			break
		}
		var serr error
		records := 0
		next, _, err := s.a.t.Heap.ScanPage(s.cur, func(_ heap.RID, rec []byte) bool {
			if cerr := s.es.poll(); cerr != nil {
				serr = cerr
				return false
			}
			if derr := s.out.AppendRecord(rec); derr != nil {
				serr = derr
				return false
			}
			records++
			return true
		})
		if err != nil {
			return nil, err
		}
		if serr != nil {
			return nil, serr
		}
		s.es.scannedPage(records)
		s.cur = next
	}
	if s.out.n == 0 {
		return nil, nil
	}
	return s.out, nil
}

// chunkRIDIter is the batched index scan. Its first NextChunk collects
// the index path's RIDs, so the collection is timed as part of the scan
// and a plan that is only explained reads no index; every call then
// fetches and decodes up to a batch of the rows behind them.
type chunkRIDIter struct {
	es *execState
	a  *access

	rids []heap.RID
	pos  int
	out  *chunk
	rec  []byte // the record being appended; the chunk copies it
}

func (r *chunkRIDIter) Schema() *Schema { return r.a.schema }

func (r *chunkRIDIter) NextChunk() (*chunk, error) {
	if r.out == nil {
		rids, err := r.a.rids(r.es)
		if err != nil {
			return nil, err
		}
		r.rids, r.out = rids, newChunk(r.a.schema, r.a.batch)
	}
	if r.pos >= len(r.rids) {
		return nil, nil
	}
	r.out.Reset()
	for !r.out.Full() && r.pos < len(r.rids) {
		if err := r.es.poll(); err != nil {
			return nil, err
		}
		var err error
		if r.rec, err = r.a.t.Heap.AppendRecord(r.rec[:0], r.rids[r.pos]); err != nil {
			return nil, err
		}
		if err := r.out.AppendRecord(r.rec); err != nil {
			return nil, err
		}
		r.pos++
	}
	return r.out, nil
}

// chunkFilterIter evaluates a predicate over each input chunk and
// narrows its selection vector in place — surviving rows are listed, no
// columns move. Only the columns the predicate touches are materialised
// into the reused scratch row, so a two-column predicate over a wide
// join output stays cheap.
type chunkFilterIter struct {
	in      batchIter
	pred    Expr
	cols    []int // columns the predicate reads; allCols if unresolvable
	allCols bool
	scratch value.Tuple
	sel     []int
}

func newChunkFilter(in batchIter, pred Expr) *chunkFilterIter {
	schema := in.Schema()
	cols, ok := predCols(pred, schema)
	return &chunkFilterIter{
		in: in, pred: pred, cols: cols, allCols: !ok,
		scratch: make(value.Tuple, len(schema.Cols)),
	}
}

func (f *chunkFilterIter) Schema() *Schema { return f.in.Schema() }

func (f *chunkFilterIter) NextChunk() (*chunk, error) {
	row := Row{Schema: f.in.Schema(), Values: f.scratch}
	for {
		c, err := f.in.NextChunk()
		if err != nil || c == nil {
			return nil, err
		}
		f.sel = f.sel[:0]
		for k, n := 0, c.Rows(); k < n; k++ {
			r := c.RowIdx(k)
			if f.allCols {
				c.ReadRow(r, f.scratch)
			} else {
				c.ReadCols(r, f.cols, f.scratch)
			}
			v, err := Eval(f.pred, row)
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				f.sel = append(f.sel, r)
			}
		}
		if len(f.sel) == 0 {
			continue // nothing survived; pull the next batch
		}
		c.sel = f.sel
		return c, nil
	}
}

// predCols lists the schema columns an expression reads. ok is false
// when some column reference does not resolve (the filter then copies
// the full row per candidate).
func predCols(e Expr, schema *Schema) (cols []int, ok bool) {
	ok = true
	walkExpr(e, func(e Expr) bool {
		if c, isRef := e.(*ColumnRef); isRef && ok {
			i, n := schema.lookup(c)
			ok = n == 1
			if ok && !slices.Contains(cols, i) {
				cols = append(cols, i)
			}
		}
		return ok
	})
	if !ok {
		return nil, false
	}
	return cols, true
}
