package sql

import (
	"bytes"
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

// buildJoin adds the table rt, read as binding, to the join tree. With
// equi keys it prefers an index nested loop over the index whose leading
// columns the keys cover longest (pickJoinIndex), which hashes once its
// probes stop paying (indexJoin), then a partitioned hash join; with no
// keys it is a cross join. The keys come from the WHERE conjuncts
// linking the right table to the left stream; buildFrom's filters
// re-check every conjunct once both sides are in scope. est is the cost
// model's output-cardinality estimate for this join, rendered on the
// plan line (EXPLAIN ANALYZE pairs it with actuals).
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
	// cross-join builds also scale with QueryWorkers. The path is chosen
	// here, since its est rows is an index join's switch budget, but
	// rightSrc runs lazily inside the join (on the caller's goroutine),
	// so its scan/parallel-scan trace lines appear only when the build
	// actually executes — plain EXPLAIN never reaches it.
	ra := db.chooseAccess(es, rt, binding, whereConjs)
	rightSrc := func() batchIter {
		ra.trace(es)
		return scanWith(es, ra, rightFilter, false)
	}
	// The partition count is a plan decision: deterministic in the
	// statistics-backed build-side estimate (and the memory budget, which
	// raises it so one partition fits the budget).
	newHash := func() *partHashJoin {
		parts := partitionsFor(estScanRows(rt, binding, whereConjs), es.memBudget, len(rightSchema.Cols))
		return newPartHashJoin(es, pairs, rightSrc, parts)
	}
	var m matcher
	var op *obs.OpStats
	if ix, width := pickJoinIndex(rt, pairs); ix != nil && db.indexesUsable(es) {
		op = es.tracef("join %s as %s: index nested loop via %s (%d of %d cols, %d keys), hash past %d rows (est rows=%d)",
			rt.Name, binding, ix.Name, width, len(ix.ColPos), len(pairs), estRowsInt(ra.est), estRowsInt(est))
		m = newIndexJoin(es, rt, rightSchema, ix, width, pairs, rightFilter, ra.est, newHash, op)
	} else if len(pairs) > 0 {
		h := newHash()
		op = es.tracef("join %s as %s: partitioned hash join (%d keys, partitions=%d) (est rows=%d)",
			rt.Name, binding, len(pairs), h.parts, estRowsInt(est))
		h.op = op
		m = h
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

// pickJoinIndex returns the index on rt whose leading columns are join
// keys for the longest run, and the length of that run: the prefix an
// index join probes. Pairs past the prefix stay residuals. The prefix
// must depend on the left row (at least one non-literal pair): a probe
// built purely from literal equalities would fetch the same rows for
// every left tuple, where a hash join with an indexed build is strictly
// better. Ties go to the index created first.
func pickJoinIndex(rt *TableInfo, pairs []equiPair) (*IndexInfo, int) {
	var best *IndexInfo
	bestWidth := 0
	for _, ix := range rt.Indexes {
		width, leftDependent := 0, false
		for _, pos := range ix.ColPos {
			i := slices.IndexFunc(pairs, func(p equiPair) bool { return p.rightCol == pos })
			if i < 0 {
				break
			}
			width++
			leftDependent = leftDependent || pairs[i].left.col >= 0
		}
		if leftDependent && width > bestWidth {
			best, bestWidth = ix, width
		}
	}
	return best, bestWidth
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
	op       *obs.OpStats // the join's trace line (spill annotation); nil under an index join

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

func newPartHashJoin(es *execState, pairs []equiPair, rightSrc func() batchIter, parts int) *partHashJoin {
	if parts < 1 {
		parts = 1
	}
	cols := pairCols(pairs)
	return &partHashJoin{
		es: es, cols: cols, probe: probeSrcs(pairs, cols),
		rightSrc: rightSrc, parts: parts,
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

// probeChunkSpilled probes every row of a left chunk from logical row
// from on, up front: rows landing in resident partitions resolve against
// the in-memory tables immediately, rows landing in spilled partitions
// are grouped per partition so each touched spill file is read back
// exactly once per chunk (ascending partition order — deterministic
// I/O), then match lists are recorded per logical row. match then serves
// rows in left stream order, so results are byte-identical to an
// unspilled run. from is 0 for a new chunk, and the switch row when an
// index join hashes the rest of its current chunk.
func (h *partHashJoin) probeChunkSpilled(c *chunk, from int) error {
	n := c.Rows()
	if cap(h.rowMatches) < n {
		h.rowMatches = make([][]value.Tuple, n)
	}
	h.rowMatches = h.rowMatches[:n]
	if h.spillProbes == nil {
		h.spillProbes = make([][]spillProbe, h.parts)
	}
	for k := from; k < n; k++ {
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
			if err := h.probeChunkSpilled(c, 0); err != nil {
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

// indexJoin is the index nested loop. Per left row it probes the index
// on the prefix its join keys cover and fetches the rows behind the
// matching entries. The pairs past the prefix are tested on each fetched
// record's wire form, so only their survivors are decoded and checked
// against the right side's pushed-down filters.
//
// A probe costs a descent plus a heap fetch per entry, so the join
// probes only while its probes have fetched fewer rows than the right
// side's access path would read whole (budget, that path's est rows).
// From then on — from the very next left row, mid-chunk included — it
// builds the partitioned hash join over the right side and matches every
// remaining left row by hash. The switch point depends only on the left
// stream and the index, never on chunk size, worker count or memory
// budget, so the result is the same under all of them. It is not a cost
// decision made up front: join estimates can be off by orders of
// magnitude, while the fetched-row count is measured.
type indexJoin struct {
	es      *execState
	rt      *TableInfo
	schema  *Schema // the right table's
	ix      *IndexInfo
	probe   []keySrc   // the left side of each prefix column
	extra   []equiPair // pairs on columns past the prefix
	filters []Expr
	budget  float64
	newHash func() *partHashJoin
	op      *obs.OpStats

	probed  int64         // left rows matched by probing
	fetched int64         // index entries the probes returned
	hash    *partHashJoin // non-nil once the join has switched

	key      []byte
	extraKey []byte // the left keys of extra, concatenated
	extraEnd []int  // end of each extra pair's key in extraKey
	fieldKey []byte
	rec      []byte
	rids     []heap.RID
	matches  []value.Tuple
}

// switchAfterProbes, when not negative, forces every index join to hash
// after that many probed left rows instead of at its fetch budget, so
// tests can place the switch before the first row, mid-chunk or never.
var switchAfterProbes = -1

func newIndexJoin(es *execState, rt *TableInfo, schema *Schema, ix *IndexInfo, width int, pairs []equiPair, filters []Expr,
	budget float64, newHash func() *partHashJoin, op *obs.OpStats) *indexJoin {
	prefix := ix.ColPos[:width]
	j := &indexJoin{
		es: es, rt: rt, schema: schema, ix: ix, probe: probeSrcs(pairs, prefix), filters: filters,
		budget: budget, newHash: newHash, op: op,
	}
	for _, p := range pairs {
		if !slices.Contains(prefix, p.rightCol) {
			j.extra = append(j.extra, p)
		}
	}
	j.extraEnd = make([]int, len(j.extra))
	return j
}

func (j *indexJoin) build() error { return nil }

func (j *indexJoin) match(c *chunk, k, r int) ([]value.Tuple, error) {
	if j.hash == nil {
		switched := float64(j.fetched) >= j.budget
		if switchAfterProbes >= 0 {
			switched = j.probed >= int64(switchAfterProbes)
		}
		if !switched {
			j.probed++
			return j.probeRow(c, r)
		}
		if err := j.switchToHash(c, k); err != nil {
			return nil, err
		}
	}
	return j.hash.match(c, k, r)
}

// switchToHash builds the hash join that matches the rest of the left
// stream, starting at logical row k of the current chunk.
func (j *indexJoin) switchToHash(c *chunk, k int) error {
	h := j.newHash()
	if err := h.build(); err != nil {
		return err
	}
	j.hash = h
	if j.es.reg != nil {
		j.es.reg.Exec.JoinSwitches.Inc()
	}
	if h.spilledN > 0 {
		j.op.Notef("hash after %d probes (%d rows fetched), spilled=%d parts", j.probed, j.fetched, h.spilledN)
	} else {
		j.op.Notef("hash after %d probes (%d rows fetched)", j.probed, j.fetched)
	}
	if h.anySpilled && k > 0 {
		// The hash resolves a spilled build a chunk at a time from row 0;
		// the rows before k were matched by probing.
		return h.probeChunkSpilled(c, k)
	}
	return nil
}

// probeRow matches physical row r of c through the index.
func (j *indexJoin) probeRow(c *chunk, r int) ([]value.Tuple, error) {
	key, ok := encodeKey(j.key[:0], j.probe, c, r)
	j.key = key
	if !ok {
		return nil, nil
	}
	j.extraKey = j.extraKey[:0]
	for i, p := range j.extra {
		v := p.left.value(c, r)
		if v.IsNull() {
			return nil, nil
		}
		j.extraKey = v.EncodeKey(j.extraKey)
		j.extraEnd[i] = len(j.extraKey)
	}
	j.rids = j.rids[:0]
	j.es.btreeSearch()
	if err := j.ix.BTree.ScanPrefix(key, func(_, v []byte) bool {
		j.rids = append(j.rids, ridFromBytes(v))
		return true
	}); err != nil {
		return nil, err
	}
	j.fetched += int64(len(j.rids))
	j.matches = j.matches[:0]
rows:
	for _, rid := range j.rids {
		// Decoding copies every payload out, so one buffer serves every
		// fetched record.
		rec, err := j.rt.Heap.AppendRecord(j.rec[:0], rid)
		j.rec = rec
		if err != nil {
			return nil, err
		}
		// Key equality is EncodeKey equality, exactly as the hash join
		// keys both sides, so probe and hash match the same rows.
		start := 0
		for i, p := range j.extra {
			if j.fieldKey, err = value.AppendFieldKey(j.fieldKey[:0], rec, p.rightCol); err != nil {
				return nil, err
			}
			if !bytes.Equal(j.fieldKey, j.extraKey[start:j.extraEnd[i]]) {
				continue rows
			}
			start = j.extraEnd[i]
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
