package sql

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xomatiq/internal/obs"
	"xomatiq/internal/storage/heap"
	"xomatiq/internal/value"
)

// equiPair is one left-expr = right-column equality usable as a join key.
type equiPair struct {
	left     Expr // evaluated against the left schema
	rightCol int  // column position in the right table
}

// buildJoin adds one table to the join tree. It prefers, in order: index
// nested-loop join (right table has an index whose leading column is a
// join key), partitioned hash join (any equi keys), and nested-loop join
// (everything else). The ON residual is applied at the join; WHERE
// conjuncts are re-checked by the outer filter.
// est is the cost model's output-cardinality estimate for this join,
// rendered on the plan line (EXPLAIN ANALYZE pairs it with actuals).
func (db *DB) buildJoin(es *execState, left batchIter, rt *TableInfo, ref TableRef, whereConjs []Expr, rightFilter []Expr, est float64) (batchIter, error) {
	binding := ref.Binding()
	rightSchema := rt.Schema(binding)
	outSchema := left.Schema().Concat(rightSchema)

	// Candidate equality conjuncts: the ON clause plus WHERE conjuncts
	// linking the right table to the left stream.
	cands := conjuncts(ref.On)
	cands = append(cands, whereConjs...)
	var pairs []equiPair
	var residual []Expr
	for i, c := range cands {
		fromOn := i < len(conjuncts(ref.On))
		if p, ok := db.asEquiPair(c, left.Schema(), binding, rt); ok {
			pairs = append(pairs, p)
			continue
		}
		if fromOn {
			residual = append(residual, c)
		}
	}

	// The right side materialises through its own access path (which may
	// use an index for pushed-down equality/range conjuncts) with the
	// remaining single-binding filters applied inline. A large sequential
	// right side parallelises just like a driving scan, so hash-join and
	// nested-loop builds also scale with QueryWorkers.
	// rightSrc runs lazily inside the join's first NextChunk (on the
	// caller's goroutine), so its scan/parallel-scan trace lines appear
	// only when the build actually executes — plain EXPLAIN never reaches
	// it.
	rightSrc := func() (batchIter, error) {
		it, sop, err := db.accessPath(es, rt, binding, whereConjs)
		if err != nil {
			return nil, err
		}
		if pit, pop, ok := parallelizeScan(es, it, rightFilter); ok {
			return tracedBatchIf(pop, pit), nil
		}
		bit := tracedBatchIf(sop, toBatch(es, it))
		for _, f := range rightFilter {
			bit = newChunkFilter(bit, f)
		}
		return bit, nil
	}
	if len(pairs) > 0 {
		if ix := pickJoinIndex(rt, pairs); ix != nil && db.indexesUsable(es) {
			// Index nested-loop probes one left row at a time; the left
			// batch stream adapts to rows at the join boundary.
			op := es.tracef("join %s as %s: index nested loop via %s (%d keys) (est rows=%d)",
				rt.Name, binding, ix.Name, len(pairs), estRowsInt(est))
			lrows := &rowsFromChunks{in: left}
			join := tracedIf(op, newIndexJoinIter(es, lrows, rt, rightSchema, outSchema, ix, pairs, rightFilter))
			for _, r := range residual {
				join = &filterIter{in: join, pred: r}
			}
			return newChunksFromRows(es, join, defaultChunkCap), nil
		}
		// The partition count is a plan decision: deterministic in the
		// statistics-backed build-side estimate (and the memory budget,
		// which raises it so one partition fits the budget).
		parts := partitionsFor(estScanRows(rt, binding, whereConjs), es.memBudget, len(rightSchema.Cols))
		op := es.tracef("join %s as %s: partitioned hash join (%d keys, partitions=%d) (est rows=%d)",
			rt.Name, binding, len(pairs), parts, estRowsInt(est))
		var join batchIter = tracedBatchIf(op, newPartHashJoin(es, left, outSchema, pairs, rightSrc, parts, op))
		for _, r := range residual {
			join = newChunkFilter(join, r)
		}
		return join, nil
	}
	op := es.tracef("join %s as %s: nested loop (cross) (est rows=%d)",
		rt.Name, binding, estRowsInt(est))
	lrows := &rowsFromChunks{in: left}
	join := tracedIf(op, newNestedLoopIter(es, lrows, outSchema, rightSrc))
	for _, r := range residual {
		join = &filterIter{in: join, pred: r}
	}
	return newChunksFromRows(es, join, defaultChunkCap), nil
}

// asEquiPair matches expr as leftExpr = right.col (either orientation)
// where leftExpr resolves against the left schema and right.col belongs
// to the right binding.
func (db *DB) asEquiPair(e Expr, leftSchema *Schema, binding string, rt *TableInfo) (equiPair, bool) {
	b, ok := e.(*BinaryExpr)
	if !ok || b.Op != OpEq {
		return equiPair{}, false
	}
	try := func(l, r Expr) (equiPair, bool) {
		rc, ok := r.(*ColumnRef)
		if !ok || !refersTo(rc, binding, rt) {
			return equiPair{}, false
		}
		// An unqualified reference that also resolves on the left is
		// ambiguous; require explicit qualification in that case.
		if rc.Table == "" {
			if _, err := leftSchema.Find(rc); err == nil {
				return equiPair{}, false
			}
		}
		lc, ok := l.(*ColumnRef)
		if ok {
			if _, err := leftSchema.Find(lc); err != nil {
				return equiPair{}, false
			}
		} else if _, isLit := l.(*Literal); !isLit {
			// Allow arbitrary left expressions only when they reference
			// the left schema exclusively; keep it simple: columns and
			// literals.
			return equiPair{}, false
		}
		return equiPair{left: l, rightCol: rt.ColIndex(rc.Column)}, true
	}
	if p, ok := try(b.Left, b.Right); ok {
		return p, true
	}
	if p, ok := try(b.Right, b.Left); ok {
		return p, true
	}
	return equiPair{}, false
}

// pickJoinIndex returns an index on rt whose columns are all join keys
// and whose probe key actually depends on the left row (at least one
// non-literal pair). A probe built purely from literal equalities would
// fetch the same rows for every left tuple — a degenerate nested loop —
// where a hash join with an indexed build is strictly better.
func pickJoinIndex(rt *TableInfo, pairs []equiPair) *IndexInfo {
	for _, ix := range rt.Indexes {
		if len(ix.ColPos) > len(pairs) {
			continue
		}
		ok := true
		leftDependent := false
		for _, pos := range ix.ColPos {
			found := false
			for _, p := range pairs {
				if p.rightCol == pos {
					found = true
					if _, lit := p.left.(*Literal); !lit {
						leftDependent = true
					}
					break
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if ok && leftDependent {
			return ix
		}
	}
	return nil
}

// joinKey evaluates the pair left expressions against a left row and
// encodes them in the order of cols (right column positions).
func joinKey(pairs []equiPair, cols []int, schema *Schema, tup value.Tuple) ([]byte, error) {
	var key []byte
	for _, pos := range cols {
		for _, p := range pairs {
			if p.rightCol == pos {
				v, err := Eval(p.left, Row{Schema: schema, Values: tup})
				if err != nil {
					return nil, err
				}
				key = v.EncodeKey(key)
				break
			}
		}
	}
	return key, nil
}

// pairCols extracts the distinct right column positions of the pairs, in
// first-appearance order.
func pairCols(pairs []equiPair) []int {
	var cols []int
	for _, p := range pairs {
		dup := false
		for _, c := range cols {
			if c == p.rightCol {
				dup = true
				break
			}
		}
		if !dup {
			cols = append(cols, p.rightCol)
		}
	}
	return cols
}

// fnvHash is FNV-1a, the partition function of the partitioned hash
// join. Any fixed function works for correctness (same key always lands
// in the same partition within one build); FNV keeps partitioning cheap
// and dependency-free.
func fnvHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// joinPartition is one build-side partition: the materialised right rows
// and their join keys in right-source order, plus the hash table over
// them. The (keys, rows) pair is self-contained — it references nothing
// outside the partition — which is the spill seam: under a memory
// budget, an overflowing partition writes the pair to a temp file in
// stream order and is reloaded per probe chunk that touches it.
type joinPartition struct {
	keys  []string
	rows  []value.Tuple
	table map[string][]value.Tuple

	bytes   int64 // estimated resident bytes while buffered in memory
	spilled bool
	w       *spillWriter
}

// keySrc is the precompiled probe-key source for one join column: a left
// chunk column (the fast path, read straight from the column vector), a
// constant literal, or a general expression evaluated over the scratch
// row.
type keySrc struct {
	colIdx int // left column position; -1 when lit/expr applies
	lit    value.Value
	expr   Expr
}

// partHashJoinIter is the batched partitioned hash join. The build side
// hash-partitions the right source by join key into parts partitions
// (rows stay in right-source order inside each partition, so per-key
// match lists — and therefore results — are byte-identical to the
// row-at-a-time join); the per-partition hash tables then build
// concurrently under the query's worker budget. The probe side consumes
// left chunks, computes each row's key against the column vectors
// directly, and emits joined rows into a reused output chunk.
type partHashJoinIter struct {
	es        *execState
	left      batchIter
	outSchema *Schema
	pairs     []equiPair
	cols      []int
	srcs      []keySrc
	rightSrc  func() (batchIter, error)
	parts     int
	op        *obs.OpStats // the join's trace line (spill annotation)

	built      bool
	partitions []joinPartition
	resident   int64 // estimated bytes buffered across unspilled partitions
	spilledN   int
	anySpilled bool

	out     *chunk
	keyBuf  []byte
	scratch value.Tuple
	cur     *chunk // left chunk being probed
	curPos  int    // next logical row of cur
	curRow  int    // physical row of the matches being expanded
	matches []value.Tuple
	mpos    int
	eof     bool

	// Spilled-probe state, valid while anySpilled: per-left-chunk match
	// lists indexed by logical row, and the per-partition probe lists
	// that batch spilled lookups so each touched spill file loads once
	// per chunk.
	rowMatches  [][]value.Tuple
	spillProbes [][]spillProbe
}

// spillProbe defers one left row's lookup into a spilled partition until
// the whole chunk's probes are grouped.
type spillProbe struct {
	pos int // logical row in the current left chunk
	key string
}

func newPartHashJoin(es *execState, left batchIter, outSchema *Schema, pairs []equiPair, rightSrc func() (batchIter, error), parts int, op *obs.OpStats) *partHashJoinIter {
	if parts < 1 {
		parts = 1
	}
	h := &partHashJoinIter{
		es: es, left: left, outSchema: outSchema,
		pairs: pairs, cols: pairCols(pairs), rightSrc: rightSrc, parts: parts, op: op,
	}
	leftSchema := left.Schema()
	for _, pos := range h.cols {
		for _, p := range h.pairs {
			if p.rightCol != pos {
				continue
			}
			s := keySrc{colIdx: -1}
			switch e := p.left.(type) {
			case *ColumnRef:
				if i, err := leftSchema.Find(e); err == nil {
					s.colIdx = i
				} else {
					s.expr = p.left
				}
			case *Literal:
				s.lit = e.Val
			default:
				s.expr = p.left
			}
			h.srcs = append(h.srcs, s)
			break
		}
	}
	h.scratch = make(value.Tuple, len(leftSchema.Cols))
	return h
}

func (h *partHashJoinIter) Schema() *Schema { return h.outSchema }

// build consumes the right source, partitioning rows by key hash, then
// builds the per-partition hash tables (concurrently when the query has
// workers to spare — partitions are independent, so the result does not
// depend on scheduling). Under a memory budget, whenever the estimated
// resident build size crosses it the largest buffered partition spills
// to a temp file; the spill decision runs in this single-threaded loop
// over the deterministic right stream, so which partitions spill — and
// therefore the result bytes — do not depend on worker count.
func (h *partHashJoinIter) build() error {
	h.built = true
	h.partitions = make([]joinPartition, h.parts)
	src, err := h.rightSrc()
	if err != nil {
		return err
	}
	budget := int64(0)
	rowCost := int64(0)
	if h.es != nil && h.es.memBudget > 0 {
		budget = h.es.memBudget
	}
	var kb []byte
	for {
		c, err := src.NextChunk()
		if err != nil {
			return err
		}
		if c == nil {
			break
		}
		if rowCost == 0 {
			rowCost = spillRowBytes(len(c.schema.Cols))
		}
		for k, n := 0, c.Rows(); k < n; k++ {
			if err := h.es.poll(); err != nil {
				return err
			}
			r := c.RowIdx(k)
			kb = kb[:0]
			for _, pos := range h.cols {
				kb = c.Value(pos, r).EncodeKey(kb)
			}
			p := &h.partitions[int(fnvHash(kb)%uint64(h.parts))]
			if p.spilled {
				if err := p.w.add(string(kb), c.TupleAt(r)); err != nil {
					return err
				}
				continue
			}
			p.keys = append(p.keys, string(kb))
			p.rows = append(p.rows, c.TupleAt(r))
			cost := rowCost + int64(len(kb))
			p.bytes += cost
			h.resident += cost
			for budget > 0 && h.resident > budget {
				if err := h.spillLargest(); err != nil {
					return err
				}
			}
		}
	}
	for i := range h.partitions {
		p := &h.partitions[i]
		if !p.spilled {
			continue
		}
		if err := p.w.flush(); err != nil {
			return err
		}
		if h.es != nil && h.es.reg != nil {
			h.es.reg.Exec.JoinSpillBytes.Add(uint64(p.w.bytes()))
		}
	}
	if h.spilledN > 0 {
		h.op.Notef("spilled=%d parts", h.spilledN)
	}
	buildOne := func(p *joinPartition) {
		if p.spilled {
			return
		}
		p.table = make(map[string][]value.Tuple, len(p.keys))
		for i, k := range p.keys {
			p.table[k] = append(p.table[k], p.rows[i])
		}
	}
	workers := 1
	if h.es != nil && h.es.workers > 1 {
		workers = h.es.workers
	}
	if workers > h.parts {
		workers = h.parts
	}
	if workers <= 1 {
		for i := range h.partitions {
			buildOne(&h.partitions[i])
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= h.parts {
					return
				}
				buildOne(&h.partitions[i])
			}
		}()
	}
	wg.Wait()
	return nil
}

// spillLargest moves the largest buffered partition (lowest index on
// ties — deterministic) out to a temp file, writing its (key, row)
// records in stream order, and frees its resident buffers. The file is
// registered with the query for cleanup at finish, success or error.
func (h *partHashJoinIter) spillLargest() error {
	best := -1
	for i := range h.partitions {
		p := &h.partitions[i]
		if p.spilled || len(p.keys) == 0 {
			continue
		}
		if best < 0 || p.bytes > h.partitions[best].bytes {
			best = i
		}
	}
	if best < 0 {
		// Everything already spilled; nothing left to shed.
		return nil
	}
	p := &h.partitions[best]
	path := fmt.Sprintf("%s.p%d", h.es.spillBase, best)
	f, err := h.es.fs.OpenFile(path)
	if err != nil {
		return fmt.Errorf("sql: join spill open: %w", err)
	}
	h.es.addSpillFile(path, f)
	p.w = newSpillWriter(f)
	for i, k := range p.keys {
		if err := p.w.add(k, p.rows[i]); err != nil {
			return err
		}
	}
	p.spilled = true
	h.anySpilled = true
	h.spilledN++
	h.resident -= p.bytes
	p.bytes = 0
	p.keys, p.rows = nil, nil
	if h.es.reg != nil {
		h.es.reg.Exec.JoinSpillParts.Inc()
	}
	return nil
}

// probeChunkSpilled probes every row of a new left chunk up front: rows
// landing in resident partitions resolve against the in-memory tables
// immediately, rows landing in spilled partitions are grouped per
// partition so each touched spill file is read back exactly once per
// chunk (ascending partition order — deterministic I/O), then match
// lists are recorded per logical row. NextChunk then emits rows in left
// stream order, so results are byte-identical to an unspilled run.
func (h *partHashJoinIter) probeChunkSpilled(c *chunk) error {
	n := c.Rows()
	if cap(h.rowMatches) < n {
		h.rowMatches = make([][]value.Tuple, n)
	}
	h.rowMatches = h.rowMatches[:n]
	if h.spillProbes == nil {
		h.spillProbes = make([][]spillProbe, h.parts)
	}
	for k := 0; k < n; k++ {
		if err := h.es.poll(); err != nil {
			return err
		}
		key, err := h.probeKey(c.RowIdx(k))
		if err != nil {
			return err
		}
		pi := int(fnvHash(key) % uint64(h.parts))
		p := &h.partitions[pi]
		if !p.spilled {
			h.rowMatches[k] = p.table[string(key)]
			continue
		}
		h.rowMatches[k] = nil
		h.spillProbes[pi] = append(h.spillProbes[pi], spillProbe{pos: k, key: string(key)})
	}
	for pi := 0; pi < h.parts; pi++ {
		probes := h.spillProbes[pi]
		if len(probes) == 0 {
			continue
		}
		p := &h.partitions[pi]
		table, err := readSpill(p.w.f, p.w.bytes())
		if err != nil {
			return err
		}
		if h.es.reg != nil {
			h.es.reg.Exec.JoinSpillLoads.Inc()
		}
		for _, pr := range probes {
			h.rowMatches[pr.pos] = table[pr.key]
		}
		h.spillProbes[pi] = probes[:0]
	}
	return nil
}

// probeKey computes the join key of one left chunk row into the reused
// key buffer. Column sources read the chunk vectors directly; only
// general expressions fall back to a scratch-row Eval.
func (h *partHashJoinIter) probeKey(r int) ([]byte, error) {
	h.keyBuf = h.keyBuf[:0]
	loaded := false
	for i := range h.srcs {
		s := &h.srcs[i]
		var v value.Value
		switch {
		case s.colIdx >= 0:
			v = h.cur.Value(s.colIdx, r)
		case s.expr != nil:
			if !loaded {
				h.cur.ReadRow(r, h.scratch)
				loaded = true
			}
			var err error
			v, err = Eval(s.expr, Row{Schema: h.left.Schema(), Values: h.scratch})
			if err != nil {
				return nil, err
			}
		default:
			v = s.lit
		}
		h.keyBuf = v.EncodeKey(h.keyBuf)
	}
	return h.keyBuf, nil
}

func (h *partHashJoinIter) NextChunk() (*chunk, error) {
	if h.eof {
		return nil, nil
	}
	if !h.built {
		if err := h.build(); err != nil {
			return nil, err
		}
	}
	if h.out == nil {
		h.out = newChunk(h.outSchema, defaultChunkCap)
	}
	h.out.Reset()
	for {
		// Expand the pending matches of the current left row; a row with
		// many matches may span output chunks.
		for h.mpos < len(h.matches) {
			if h.out.Full() {
				return h.out, nil
			}
			h.out.appendJoined(h.cur, h.curRow, h.matches[h.mpos])
			h.mpos++
		}
		if h.cur == nil || h.curPos >= h.cur.Rows() {
			c, err := h.left.NextChunk()
			if err != nil {
				return nil, err
			}
			if c == nil {
				h.eof = true
				if h.out.n > 0 {
					return h.out, nil
				}
				return nil, nil
			}
			h.cur, h.curPos = c, 0
			if h.anySpilled {
				if err := h.probeChunkSpilled(c); err != nil {
					return nil, err
				}
			}
			continue
		}
		if err := h.es.poll(); err != nil {
			return nil, err
		}
		r := h.cur.RowIdx(h.curPos)
		if h.anySpilled {
			// Match lists were resolved for the whole chunk up front.
			h.curRow = r
			h.matches = h.rowMatches[h.curPos]
			h.curPos++
			h.mpos = 0
			continue
		}
		h.curPos++
		key, err := h.probeKey(r)
		if err != nil {
			return nil, err
		}
		part := &h.partitions[int(fnvHash(key)%uint64(h.parts))]
		h.curRow = r
		h.matches = part.table[string(key)]
		h.mpos = 0
	}
}

// indexJoinIter probes a right-table index for each left row.
type indexJoinIter struct {
	es          *execState
	left        rowIter
	rt          *TableInfo
	rightSchema *Schema
	outSchema   *Schema
	ix          *IndexInfo
	pairs       []equiPair
	rightFilter []Expr

	current value.Tuple
	matches []value.Tuple
	mpos    int
}

func newIndexJoinIter(es *execState, left rowIter, rt *TableInfo, rightSchema, outSchema *Schema, ix *IndexInfo, pairs []equiPair, rightFilter []Expr) rowIter {
	return &indexJoinIter{
		es: es, left: left, rt: rt, rightSchema: rightSchema, outSchema: outSchema,
		ix: ix, pairs: pairs, rightFilter: rightFilter,
	}
}

func (j *indexJoinIter) Schema() *Schema { return j.outSchema }

func (j *indexJoinIter) probe(ltup value.Tuple) error {
	if err := j.es.poll(); err != nil {
		return err
	}
	key, err := joinKey(j.pairs, j.ix.ColPos, j.left.Schema(), ltup)
	if err != nil {
		return err
	}
	j.matches = j.matches[:0]
	var rids []heap.RID
	if j.ix.Hash != nil {
		j.es.hashLookup()
		j.ix.Hash.Lookup(key, func(p []byte) bool {
			rids = append(rids, ridFromBytes(p))
			return true
		})
	} else {
		j.es.btreeSearch()
		if err := j.ix.BTree.ScanPrefix(key, func(_, v []byte) bool {
			rids = append(rids, ridFromBytes(v))
			return true
		}); err != nil {
			return err
		}
	}
	for _, rid := range rids {
		rec, err := j.rt.Heap.Get(rid)
		if err != nil {
			return err
		}
		tup, err := value.DecodeTuple(rec)
		if err != nil {
			return err
		}
		if keep, err := passes(j.rightFilter, j.rightSchema, tup); err != nil {
			return err
		} else if !keep {
			continue
		}
		// The index may cover fewer columns than the equality set; the
		// residual pairs are verified here.
		match := true
		for _, p := range j.pairs {
			covered := false
			for _, pos := range j.ix.ColPos {
				if pos == p.rightCol {
					covered = true
					break
				}
			}
			if covered {
				continue
			}
			lv, err := Eval(p.left, Row{Schema: j.left.Schema(), Values: ltup})
			if err != nil {
				return err
			}
			if lv.IsNull() || tup[p.rightCol].IsNull() || value.Compare(lv, tup[p.rightCol]) != 0 {
				match = false
				break
			}
		}
		if match {
			j.matches = append(j.matches, tup)
		}
	}
	j.mpos = 0
	return nil
}

func (j *indexJoinIter) Next() (value.Tuple, bool, error) {
	for {
		if j.mpos < len(j.matches) {
			rt := j.matches[j.mpos]
			j.mpos++
			out := make(value.Tuple, 0, len(j.current)+len(rt))
			out = append(out, j.current...)
			out = append(out, rt...)
			return out, true, nil
		}
		ltup, ok, err := j.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		j.current = ltup
		if err := j.probe(ltup); err != nil {
			return nil, false, err
		}
	}
}

// nestedLoopIter is the fallback cross join; predicates are applied by
// the caller's filters.
type nestedLoopIter struct {
	es        *execState
	left      rowIter
	outSchema *Schema
	rightSrc  func() (batchIter, error)

	right   []value.Tuple
	built   bool
	current value.Tuple
	rpos    int
	haveRow bool
}

func newNestedLoopIter(es *execState, left rowIter, outSchema *Schema, rightSrc func() (batchIter, error)) rowIter {
	return &nestedLoopIter{es: es, left: left, outSchema: outSchema, rightSrc: rightSrc}
}

func (n *nestedLoopIter) Schema() *Schema { return n.outSchema }

func (n *nestedLoopIter) build() error {
	n.built = true
	src, err := n.rightSrc()
	if err != nil {
		return err
	}
	for {
		c, err := src.NextChunk()
		if err != nil {
			return err
		}
		if c == nil {
			return nil
		}
		for k, cn := 0, c.Rows(); k < cn; k++ {
			n.right = append(n.right, c.TupleAt(c.RowIdx(k)))
		}
	}
}

func (n *nestedLoopIter) Next() (value.Tuple, bool, error) {
	if !n.built {
		if err := n.build(); err != nil {
			return nil, false, err
		}
	}
	for {
		if err := n.es.poll(); err != nil {
			return nil, false, err
		}
		if n.haveRow && n.rpos < len(n.right) {
			rt := n.right[n.rpos]
			n.rpos++
			out := make(value.Tuple, 0, len(n.current)+len(rt))
			out = append(out, n.current...)
			out = append(out, rt...)
			return out, true, nil
		}
		ltup, ok, err := n.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		n.current = ltup
		n.rpos = 0
		n.haveRow = true
	}
}

// passes evaluates pushed-down single-binding conjuncts against a right
// tuple during join builds and probes.
func passes(filters []Expr, schema *Schema, tup value.Tuple) (bool, error) {
	for _, f := range filters {
		v, err := Eval(f, Row{Schema: schema, Values: tup})
		if err != nil {
			return false, err
		}
		if !truthy(v) {
			return false, nil
		}
	}
	return true, nil
}
