package sql

import (
	"sync/atomic"

	"xomatiq/internal/obs"
	"xomatiq/internal/storage/disk"
	"xomatiq/internal/storage/heap"
	"xomatiq/internal/value"
)

// parallelScanMinPages is the planner floor: sequential scans over heaps
// with fewer pages stay serial, because the fan-out and merge cost would
// exceed the scan itself. Var, not const, so tests can lower it.
var parallelScanMinPages = 8

// Above the page floor a cost decision takes over: the work a parallel
// scan amortises is page fetches plus per-row decode and filter
// evaluation, and the fraction other workers shoulder must beat a fixed
// fan-out/merge overhead. A heap that is many pages but few live rows
// (bulk deletes) therefore stays serial where the old fixed threshold
// went parallel. Vars, not consts, so tests can pin the decision.
var (
	parallelPageCost   = 0.2
	parallelRowCost    = 0.02
	parallelFilterCost = 0.01
	parallelOverhead   = 3.0
)

// parallelizeScan swaps a sequential scan for the parallel scan-filter
// operator when the query runs with more than one worker and the driving
// heap spans at least parallelScanMinPages pages. The binding-local
// filters move inside the operator — workers apply them page-locally,
// narrowing each page chunk's selection vector — so the caller must NOT
// wrap them again when ok is true. Output order is byte-identical to the
// serial plan for any worker count: chunks carry their chain position
// and the merger emits them in heap order.
func parallelizeScan(es *execState, a *access, filters []Expr) (batchIter, *obs.OpStats, bool) {
	if a.ix != nil || es.workers <= 1 {
		return nil, nil, false
	}
	pages := a.t.Heap.PageIDs()
	if len(pages) < parallelScanMinPages {
		return nil, nil, false
	}
	workers := es.workers
	if workers > len(pages) {
		workers = len(pages)
	}
	rows := float64(a.t.Heap.Count())
	work := float64(len(pages))*parallelPageCost +
		rows*(parallelRowCost+parallelFilterCost*float64(len(filters)))
	if work*(1-1/float64(workers)) < parallelOverhead {
		return nil, nil, false
	}
	// The operator folds the filters in, so its estimate (and actuals)
	// are post-filter output rows.
	binding := ""
	if len(a.schema.Cols) > 0 {
		binding = a.schema.Cols[0].Table
	}
	op := es.tracef("  parallel scan (%d workers, %d pages) (batch=%d) (est rows=%d)",
		workers, len(pages), a.batch, estRowsInt(estScanRows(a.t, binding, filters)))
	p := &parallelScanIter{
		es: es, t: a.t, schema: a.schema, batch: a.batch,
		filters: filters, pages: pages, workers: workers,
	}
	for _, f := range filters {
		cols, okc := predCols(f, a.schema)
		p.filterCols = append(p.filterCols, cols)
		p.filterAll = append(p.filterAll, !okc)
	}
	return p, op, true
}

// pageBatch is the unit of hand-off between scan workers and the merger:
// one heap page decoded into a chunk (selection vector already narrowed
// by the pushed-down filters) plus its chain position.
type pageBatch struct {
	idx int
	c   *chunk
	err error
}

// parallelScanIter partitions a heap's page chain across a pool of
// goroutines that fetch, decode and filter pages concurrently against the
// sharded buffer pool, then merges the per-page chunks back in chain
// order. Workers claim pages from an atomic cursor, so a skewed page
// (many matching rows) never stalls the others. Chunks recycle through a
// free list: the merger returns the chunk the consumer just finished
// with, and workers reset-and-reuse it for a later page. The operator is
// an ordinary batchIter; workers start lazily on the first NextChunk.
type parallelScanIter struct {
	es      *execState
	t       *TableInfo
	schema  *Schema
	batch   int
	filters []Expr
	// Per-filter column sets, precomputed once so workers copy only the
	// predicate's columns into their scratch row.
	filterCols [][]int
	filterAll  []bool
	pages      []disk.PageID
	workers    int

	started bool
	out     chan pageBatch
	free    chan *chunk
	stop    chan struct{} // closed by the merger on error: workers quit early
	stopped bool
	pending map[int]pageBatch // reorder buffer, keyed by page index
	next    int               // next page index the merger owes the caller
	cur     *chunk            // chunk held by the consumer since the last call
	err     error
}

func (p *parallelScanIter) Schema() *Schema { return p.schema }

func (p *parallelScanIter) start() {
	p.started = true
	p.out = make(chan pageBatch, p.workers*2)
	p.free = make(chan *chunk, p.workers*2+2)
	p.stop = make(chan struct{})
	p.pending = make(map[int]pageBatch, p.workers)
	var cursor atomic.Int64
	p.es.scans.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		go func() {
			defer p.es.scans.Done()
			p.worker(&cursor)
		}()
	}
}

// worker claims page indexes until the chain is exhausted, an error is
// handed off, or the query ends. Every claimed page produces exactly one
// batch (possibly carrying an error), which the merger relies on: a page
// it waits for either arrives or the whole scan has failed.
func (p *parallelScanIter) worker(cursor *atomic.Int64) {
	scratch := make(value.Tuple, len(p.schema.Cols))
	for {
		select {
		case <-p.stop:
			return
		case <-p.es.done:
			return
		default:
		}
		i := int(cursor.Add(1)) - 1
		if i >= len(p.pages) {
			return
		}
		b := p.scanPage(i, scratch)
		select {
		case p.out <- b:
		case <-p.stop:
			return
		case <-p.es.done:
			return
		}
		if b.err != nil {
			return
		}
	}
}

// scanPage decodes one page into a (recycled) chunk and narrows its
// selection vector through the pushed-down filters. Cancellation is
// polled once per page — the per-row counter of execState is not shared
// across workers, so each worker checks the context directly at page
// granularity.
func (p *parallelScanIter) scanPage(i int, scratch value.Tuple) pageBatch {
	b := pageBatch{idx: i}
	if p.es.ctx != nil {
		if err := p.es.ctx.Err(); err != nil {
			b.err = err
			return b
		}
	}
	var c *chunk
	select {
	case c = <-p.free:
		c.Reset()
	default:
		c = newChunk(p.schema, p.batch)
	}
	b.c = c
	decoded := 0
	_, _, err := p.t.Heap.ScanPage(p.pages[i], func(_ heap.RID, rec []byte) bool {
		if derr := c.AppendRecord(rec); derr != nil {
			b.err = derr
			return false
		}
		decoded++
		return true
	})
	if err != nil && b.err == nil {
		b.err = err
	}
	p.es.scannedPage(decoded)
	if b.err != nil {
		return b
	}
	row := Row{Schema: p.schema, Values: scratch}
	for fi, f := range p.filters {
		sel := c.sel[:0]
		if sel == nil {
			sel = make([]int, 0, c.n)
		}
		for k, n := 0, c.Rows(); k < n; k++ {
			r := c.RowIdx(k)
			if p.filterAll[fi] {
				c.ReadRow(r, scratch)
			} else {
				c.ReadCols(r, p.filterCols[fi], scratch)
			}
			v, ferr := Eval(f, row)
			if ferr != nil {
				b.err = ferr
				return b
			}
			if truthy(v) {
				sel = append(sel, r)
			}
		}
		c.sel = sel
	}
	return b
}

// fail records the scan's verdict and releases the workers.
func (p *parallelScanIter) fail(err error) error {
	p.err = err
	if !p.stopped {
		p.stopped = true
		close(p.stop)
	}
	return err
}

func (p *parallelScanIter) NextChunk() (*chunk, error) {
	if p.err != nil {
		return nil, p.err
	}
	if !p.started {
		p.start()
	}
	// The consumer is done with the chunk of the previous call; hand it
	// back to the workers.
	if p.cur != nil {
		select {
		case p.free <- p.cur:
		default:
		}
		p.cur = nil
	}
	for {
		if p.next >= len(p.pages) {
			return nil, nil
		}
		// Pull batches until the next page in chain order is available.
		// Any error fails the scan immediately: a worker that errored has
		// stopped claiming pages, so waiting for in-order delivery could
		// wait forever.
		if b, ok := p.pending[p.next]; ok {
			delete(p.pending, p.next)
			p.next++
			if b.c.Rows() == 0 {
				// Fully filtered page: recycle without surfacing it.
				select {
				case p.free <- b.c:
				default:
				}
				continue
			}
			p.cur = b.c
			return b.c, nil
		}
		b := <-p.out
		if b.err != nil {
			return nil, p.fail(b.err)
		}
		p.pending[b.idx] = b
	}
}
