package sql

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"xomatiq/internal/obs"
	"xomatiq/internal/storage/heap"
	"xomatiq/internal/value"
)

// equiPair is one left = right-column equality usable as a join key.
type equiPair struct {
	left     keySrc // a column of the left stream, or a constant
	rightCol int    // column position in the right table
}

// keySrc is one component of a join key: column col of a chunk, or the
// constant lit when col is -1.
type keySrc struct {
	col int
	lit value.Value
}

func (s keySrc) value(c *chunk, r int) value.Value {
	if s.col < 0 {
		return s.lit
	}
	return c.Value(s.col, r)
}

// encodeKey appends the join key of physical row r of c to dst, one
// component per source, read straight from the column vectors. Both
// equi-joins key both of their sides here. ok is false when a component
// is NULL: NULL equals nothing, not even NULL, so such a row enters no
// build partition and probes no index.
func encodeKey(dst []byte, srcs []keySrc, c *chunk, r int) (key []byte, ok bool) {
	for _, s := range srcs {
		v := s.value(c, r)
		if v.IsNull() {
			return dst, false
		}
		dst = v.EncodeKey(dst)
	}
	return dst, true
}

// probeSrcs orders the pairs' left sides by the key columns cols (right
// column positions), so a probe key encodes exactly as the hash build or
// the index encodes the right row.
func probeSrcs(pairs []equiPair, cols []int) []keySrc {
	srcs := make([]keySrc, 0, len(cols))
	for _, pos := range cols {
		for _, p := range pairs {
			if p.rightCol == pos {
				srcs = append(srcs, p.left)
				break
			}
		}
	}
	return srcs
}

// buildJoin adds the table rt, read as binding, to the join tree. It
// prefers, in order: index nested-loop join (right table has an index
// whose columns are all join keys), partitioned hash join (any equi
// keys), and cross join (everything else). The keys come from the WHERE
// conjuncts linking the right table to the left stream; buildFrom's
// filters re-check every conjunct once both sides are in scope.
// est is the cost model's output-cardinality estimate for this join,
// rendered on the plan line (EXPLAIN ANALYZE pairs it with actuals).
func (db *DB) buildJoin(es *execState, left batchIter, rt *TableInfo, binding string, whereConjs []Expr, rightFilter []Expr, est float64) batchIter {
	rightSchema := rt.Schema(binding)
	var pairs []equiPair
	for _, c := range whereConjs {
		if p, ok := db.asEquiPair(c, left.Schema(), binding, rt); ok {
			pairs = append(pairs, p)
		}
	}

	// The right side materialises through its own access path (which may
	// use an index for pushed-down equality/range conjuncts) with the
	// remaining single-binding filters applied inline. A large sequential
	// right side parallelises just like a driving scan, so hash-join and
	// cross-join builds also scale with QueryWorkers.
	// rightSrc runs lazily inside the join's first NextChunk (on the
	// caller's goroutine), so its scan/parallel-scan trace lines appear
	// only when the build actually executes — plain EXPLAIN never reaches
	// it.
	rightSrc := func() batchIter {
		return scanWith(es, db.accessPath(es, rt, binding, whereConjs), rightFilter, false)
	}
	var m matcher
	var op *obs.OpStats
	if ix := pickJoinIndex(rt, pairs); ix != nil && db.indexesUsable(es) {
		op = es.tracef("join %s as %s: index nested loop via %s (%d keys) (est rows=%d)",
			rt.Name, binding, ix.Name, len(pairs), estRowsInt(est))
		m = newIndexJoin(es, rt, rightSchema, ix, pairs, rightFilter)
	} else if len(pairs) > 0 {
		// The partition count is a plan decision: deterministic in the
		// statistics-backed build-side estimate (and the memory budget,
		// which raises it so one partition fits the budget).
		parts := partitionsFor(estScanRows(rt, binding, whereConjs), es.memBudget, len(rightSchema.Cols))
		op = es.tracef("join %s as %s: partitioned hash join (%d keys, partitions=%d) (est rows=%d)",
			rt.Name, binding, len(pairs), parts, estRowsInt(est))
		m = newPartHashJoin(es, pairs, rightSrc, parts, op)
	} else {
		op = es.tracef("join %s as %s: nested loop (cross) (est rows=%d)",
			rt.Name, binding, estRowsInt(est))
		m = &crossJoin{rightSrc: rightSrc}
	}
	return tracedBatchIf(op, &joinIter{es: es, left: left, schema: left.Schema().Concat(rightSchema), m: m})
}

// asEquiPair matches expr as left = right.col (either orientation) where
// left is a column of the left schema or a literal and right.col belongs
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
		p := equiPair{left: keySrc{col: -1}, rightCol: rt.ColIndex(rc.Column)}
		switch l := l.(type) {
		case *ColumnRef:
			i, err := leftSchema.Find(l)
			if err != nil {
				return equiPair{}, false
			}
			p.left.col = i
		case *Literal:
			p.left.lit = l.Val
		default:
			return equiPair{}, false
		}
		return p, true
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
					if p.left.col >= 0 {
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

// pairCols extracts the distinct right column positions of the pairs, in
// first-appearance order.
func pairCols(pairs []equiPair) []int {
	var cols []int
	for _, p := range pairs {
		if !slices.Contains(cols, p.rightCol) {
			cols = append(cols, p.rightCol)
		}
	}
	return cols
}

// matcher is one join strategy: it finds the right rows that match each
// left row.
type matcher interface {
	// build runs once, before the first left chunk is pulled.
	build() error
	// match returns the right rows matching logical row k (physical row
	// r) of left chunk c. The rows of each chunk are matched in order
	// from k = 0. The slice is valid until the next call.
	match(c *chunk, k, r int) ([]value.Tuple, error)
}

// joinIter is the probe loop every join strategy shares: it pulls left
// chunks, asks its matcher for each row's matches and emits (left row ++
// right row) into a reused output chunk through appendJoined, so left
// columns move arena-to-arena. A row with many matches may span output
// chunks; output order is left stream order, then match order.
type joinIter struct {
	es     *execState
	left   batchIter
	schema *Schema
	m      matcher

	out     *chunk
	cur     *chunk // left chunk being probed
	curPos  int    // next logical row of cur
	curRow  int    // physical row whose matches are being emitted
	matches []value.Tuple
	mpos    int
	eof     bool
}

func (j *joinIter) Schema() *Schema { return j.schema }

func (j *joinIter) NextChunk() (*chunk, error) {
	if j.eof {
		return nil, nil
	}
	if j.out == nil {
		if err := j.m.build(); err != nil {
			return nil, err
		}
		j.out = newChunk(j.schema, defaultChunkCap)
	}
	j.out.Reset()
	for {
		for j.mpos < len(j.matches) {
			if j.out.Full() {
				return j.out, nil
			}
			if err := j.es.poll(); err != nil {
				return nil, err
			}
			j.out.appendJoined(j.cur, j.curRow, j.matches[j.mpos])
			j.mpos++
		}
		if j.cur == nil || j.curPos >= j.cur.Rows() {
			c, err := j.left.NextChunk()
			if err != nil {
				return nil, err
			}
			if c == nil {
				j.eof = true
				if j.out.n > 0 {
					return j.out, nil
				}
				return nil, nil
			}
			j.cur, j.curPos = c, 0
			continue
		}
		if err := j.es.poll(); err != nil {
			return nil, err
		}
		j.curRow = j.cur.RowIdx(j.curPos)
		matches, err := j.m.match(j.cur, j.curPos, j.curRow)
		if err != nil {
			return nil, err
		}
		j.matches, j.mpos = matches, 0
		j.curPos++
	}
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

// partHashJoin is the partitioned hash join. The build side
// hash-partitions the right source by join key into parts partitions
// (rows stay in right-source order inside each partition, so per-key
// match lists — and therefore results — do not depend on the partition
// count); the per-partition hash tables then build concurrently under
// the query's worker budget. Probes key each left row straight from the
// chunk's column vectors into one reused buffer.
type partHashJoin struct {
	es       *execState
	cols     []int    // key columns (right positions), in key order
	probe    []keySrc // the left side of each key column
	rightSrc func() batchIter
	parts    int
	op       *obs.OpStats // the join's trace line (spill annotation)

	partitions []joinPartition
	resident   int64 // estimated bytes buffered across unspilled partitions
	spilledN   int
	anySpilled bool
	keyBuf     []byte

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

func newPartHashJoin(es *execState, pairs []equiPair, rightSrc func() batchIter, parts int, op *obs.OpStats) *partHashJoin {
	if parts < 1 {
		parts = 1
	}
	cols := pairCols(pairs)
	return &partHashJoin{
		es: es, cols: cols, probe: probeSrcs(pairs, cols),
		rightSrc: rightSrc, parts: parts, op: op,
	}
}

// partition returns the partition a key hashes to.
func (h *partHashJoin) partition(key []byte) int {
	return int(fnvHash(key) % uint64(h.parts))
}

// build consumes the right source, partitioning rows by key hash, then
// builds the per-partition hash tables (concurrently when the query has
// workers to spare — partitions are independent, so the result does not
// depend on scheduling). Under a memory budget, whenever the estimated
// resident build size crosses it the largest buffered partition spills
// to a temp file; the spill decision runs in this single-threaded loop
// over the deterministic right stream, so which partitions spill — and
// therefore the result bytes — do not depend on worker count.
func (h *partHashJoin) build() error {
	h.partitions = make([]joinPartition, h.parts)
	src := h.rightSrc()
	budget := h.es.memBudget
	rowCost := int64(0)
	keys := make([]keySrc, len(h.cols))
	for i, pos := range h.cols {
		keys[i] = keySrc{col: pos}
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
			var ok bool
			if kb, ok = encodeKey(kb[:0], keys, c, r); !ok {
				continue
			}
			p := &h.partitions[h.partition(kb)]
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
		if h.es.reg != nil {
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
	workers := min(h.es.workers, h.parts)
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
func (h *partHashJoin) spillLargest() error {
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
// lists are recorded per logical row. match then serves rows in left
// stream order, so results are byte-identical to an unspilled run.
func (h *partHashJoin) probeChunkSpilled(c *chunk) error {
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
		h.rowMatches[k] = nil
		key, ok := encodeKey(h.keyBuf[:0], h.probe, c, c.RowIdx(k))
		h.keyBuf = key
		if !ok {
			continue
		}
		pi := h.partition(key)
		p := &h.partitions[pi]
		if !p.spilled {
			h.rowMatches[k] = p.table[string(key)]
			continue
		}
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

func (h *partHashJoin) match(c *chunk, k, r int) ([]value.Tuple, error) {
	if h.anySpilled {
		// Match lists are resolved for the whole chunk up front.
		if k == 0 {
			if err := h.probeChunkSpilled(c); err != nil {
				return nil, err
			}
		}
		return h.rowMatches[k], nil
	}
	key, ok := encodeKey(h.keyBuf[:0], h.probe, c, r)
	h.keyBuf = key
	if !ok {
		return nil, nil
	}
	return h.partitions[h.partition(key)].table[string(key)], nil
}

// indexJoin probes a right-table index once per left row and fetches the
// rows behind the matching entries. The right side's pushed-down filters
// and the pairs on columns the index does not cover are checked per
// fetched row.
type indexJoin struct {
	es      *execState
	rt      *TableInfo
	schema  *Schema // the right table's
	ix      *IndexInfo
	probe   []keySrc   // the left side of each index column
	extra   []equiPair // pairs on columns the index does not cover
	filters []Expr

	key     []byte
	extraV  []value.Value
	rids    []heap.RID
	matches []value.Tuple
}

func newIndexJoin(es *execState, rt *TableInfo, schema *Schema, ix *IndexInfo, pairs []equiPair, filters []Expr) *indexJoin {
	j := &indexJoin{es: es, rt: rt, schema: schema, ix: ix, probe: probeSrcs(pairs, ix.ColPos), filters: filters}
	for _, p := range pairs {
		if !slices.Contains(ix.ColPos, p.rightCol) {
			j.extra = append(j.extra, p)
		}
	}
	j.extraV = make([]value.Value, len(j.extra))
	return j
}

func (j *indexJoin) build() error { return nil }

func (j *indexJoin) match(c *chunk, _, r int) ([]value.Tuple, error) {
	key, ok := encodeKey(j.key[:0], j.probe, c, r)
	j.key = key
	if !ok {
		return nil, nil
	}
	for i, p := range j.extra {
		if j.extraV[i] = p.left.value(c, r); j.extraV[i].IsNull() {
			return nil, nil
		}
	}
	j.rids = j.rids[:0]
	j.es.btreeSearch()
	if err := j.ix.BTree.ScanPrefix(key, func(_, v []byte) bool {
		j.rids = append(j.rids, ridFromBytes(v))
		return true
	}); err != nil {
		return nil, err
	}
	j.matches = j.matches[:0]
rows:
	for _, rid := range j.rids {
		rec, err := j.rt.Heap.Get(rid)
		if err != nil {
			return nil, err
		}
		tup, err := value.DecodeTuple(rec)
		if err != nil {
			return nil, err
		}
		if keep, err := passes(j.filters, j.schema, tup); err != nil {
			return nil, err
		} else if !keep {
			continue
		}
		for i, p := range j.extra {
			if rv := tup[p.rightCol]; rv.IsNull() || value.Compare(j.extraV[i], rv) != 0 {
				continue rows
			}
		}
		j.matches = append(j.matches, tup)
	}
	return j.matches, nil
}

// crossJoin pairs every left row with every right row; the join's
// predicates run as filters above it.
type crossJoin struct {
	rightSrc func() batchIter
	right    []value.Tuple
}

func (x *crossJoin) build() error {
	src := x.rightSrc()
	for {
		c, err := src.NextChunk()
		if err != nil || c == nil {
			return err
		}
		for k, n := 0, c.Rows(); k < n; k++ {
			x.right = append(x.right, c.TupleAt(c.RowIdx(k)))
		}
	}
}

func (x *crossJoin) match(*chunk, int, int) ([]value.Tuple, error) { return x.right, nil }

// passes evaluates pushed-down single-binding conjuncts against a right
// tuple during index nested-loop probes.
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
