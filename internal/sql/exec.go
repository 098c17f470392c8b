package sql

import (
	"context"
	"fmt"
	"math/bits"
	"strings"

	"xomatiq/internal/obs"
	"xomatiq/internal/storage/disk"
	"xomatiq/internal/storage/heap"
	"xomatiq/internal/value"
)

// cancelEvery is how many rows an executor loop processes between
// context polls: small enough that a cancelled scan over a large table
// stops promptly, large enough that the poll is noise per row.
const cancelEvery = 256

// execState is shared by every iterator of one query execution, so the
// poll counter accumulates across the whole plan: many small index
// probes cancel as promptly as one big scan. A state without a context
// (DML row collection) never cancels. Every iterator runs on the
// statement's goroutine; the one operator that starts goroutines of its
// own, the partitioned hash join's build, joins them before it returns.
type execState struct {
	ctx   context.Context
	polls int
	// workers is how many goroutines a partitioned hash join may build
	// its partition tables on (Options.QueryWorkers); 0 or 1 builds them
	// serially.
	workers int
	// reg receives the work counters (heap pages, index probes) of this
	// execution; nil skips them (plan-only walks).
	reg *obs.Registry
	// qt collects plan lines and, for EXPLAIN ANALYZE / slow queries,
	// per-operator actuals; nil (the normal query path) records nothing
	// and keeps the executor allocation-free.
	qt *obs.QueryTrace
	// memBudget bounds the resident build memory of hash joins
	// (Options.QueryMemBudget / ExecOpts.MemBudget); 0 is unlimited.
	// Overflowing partitions spill to temp files through fs.
	memBudget int64
	// fs and spillBase name the spill files of this query; finish removes
	// every registered file whether the query succeeded or failed.
	fs         disk.FS
	spillBase  string
	spillFiles []disk.File
	spillPaths []string
	// snap is the one view the statement reads: every table lookup
	// resolves in its catalog.
	snap *Snap
}

// addSpillFile registers a spill file for end-of-query cleanup.
func (es *execState) addSpillFile(path string, f disk.File) {
	es.spillPaths = append(es.spillPaths, path)
	es.spillFiles = append(es.spillFiles, f)
}

// newExecState prepares the shared state for one query execution. The
// caller must invoke finish (normally via defer) once the query is done.
func newExecState(ctx context.Context, workers int) *execState {
	return &execState{ctx: ctx, workers: workers}
}

// finish removes the query's spill files. Cleanup failures are
// swallowed: the query's result (or error) is already determined, and
// an undeletable scratch file must not turn it into a failure.
func (es *execState) finish() {
	for _, f := range es.spillFiles {
		_ = f.Close()
	}
	for _, p := range es.spillPaths {
		_ = es.fs.Remove(p)
	}
}

// poll returns ctx.Err() on every cancelEvery-th call.
func (es *execState) poll() error {
	es.polls++
	if es.polls%cancelEvery != 0 || es.ctx == nil {
		return nil
	}
	return es.ctx.Err()
}

// tracef appends a plan line to the query trace and returns its operator
// handle (nil when no trace, or when the trace is plan-only).
func (es *execState) tracef(format string, args ...any) *obs.OpStats {
	return es.qt.Linef(format, args...)
}

// plainf appends a plan line that never carries actuals (work folded
// into another operator, e.g. the sink's DISTINCT).
func (es *execState) plainf(format string, args ...any) {
	es.qt.Plainf(format, args...)
}

// scannedPage feeds one visited heap page (with its decoded record
// count) to the registry.
func (es *execState) scannedPage(records int) {
	if es.reg == nil {
		return
	}
	es.reg.Heap.PagesScanned.Inc()
	es.reg.Heap.RecordsScanned.Add(uint64(records))
}

// btreeSearch feeds one B-tree prefix/range scan to the registry.
func (es *execState) btreeSearch() {
	if es.reg != nil {
		es.reg.Index.BTreeSearches.Inc()
	}
}

// runSelect plans a SELECT and, when execute is set, runs it: the query
// path and Explain share everything up to the first row, so the plan
// Explain renders is the plan the query runs.
//
// The view is o.Snap. Nil is the published snapshot, pinned for the
// statement: the query holds only the readGate, so a concurrent load
// commits freely while it runs, and it sees committed state only. A
// caller-pinned snapshot holds the readGate too. A BatchView holds db.mu
// shared instead and sees the writer's own open batch. o.Trace, when
// non-nil, collects plan lines and per-operator actuals (EXPLAIN ANALYZE
// and slow-query traces). o.Workers and o.MemBudget override
// Options.QueryWorkers and Options.QueryMemBudget for this query when
// positive (per-session overrides ride here).
func (db *DB) runSelect(ctx context.Context, sel *Select, o ExecOpts, execute bool) (*Rows, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("sql: SELECT requires FROM")
	}
	snap := o.Snap
	if snap == nil {
		snap = db.AcquireSnapshot()
		defer db.ReleaseSnapshot(snap)
	}
	if snap == batchView {
		db.mu.RLock()
		defer db.mu.RUnlock()
		snap = db.batchViewLocked()
	} else {
		db.readGate.RLock()
		defer db.readGate.RUnlock()
	}
	workers := o.Workers
	if workers <= 0 {
		workers = db.opts.QueryWorkers
	}
	memBudget := o.MemBudget
	if memBudget <= 0 {
		memBudget = db.opts.QueryMemBudget
	}
	es := newExecState(ctx, workers)
	es.reg = db.reg
	es.qt = o.Trace
	es.snap = snap
	if memBudget > 0 {
		es.memBudget = memBudget
		es.fs = db.opts.FS
		es.spillBase = fmt.Sprintf("%s.spill.q%d", db.path, db.spillSeq.Add(1))
	}
	defer es.finish()
	it, err := db.buildFrom(es, sel)
	if err != nil {
		return nil, err
	}
	sp := db.planSink(es, sel, it.Schema())
	if !execute {
		return nil, nil
	}
	if sp.grouped {
		return db.runAggregate(es, sel, it, sp)
	}
	return db.project(es, sel, it, sp)
}

// sinkPlan carries the planned result-sink shape of one SELECT: the
// resolved output expressions/names, the order spec, the aggregate
// calls and whether the SELECT groups at all, the cost model's group
// estimate, and the plan-line operator handles the executor feeds with
// actuals (EXPLAIN ANALYZE "groups=G" annotations).
type sinkPlan struct {
	exprs     []Expr
	names     []string
	spec      *orderSpec
	aggCalls  []*FuncCall
	grouped   bool
	estGroups int64
	aggOp     *obs.OpStats
	sortOp    *obs.OpStats
}

// planSink resolves the SELECT's sink operators against the input
// schema and appends their plan lines (hash aggregate, distinct, sort)
// after the scan/join tree. Shared by execution and plain EXPLAIN, so
// the rendered plan always shows the sink strategy — including the
// top-K-vs-full sort decision.
func (db *DB) planSink(es *execState, sel *Select, in *Schema) *sinkPlan {
	sp := &sinkPlan{}
	sp.exprs, sp.names = expandItems(sel, in)
	sp.spec = newOrderSpec(sel, in, sp.names)
	sp.aggCalls = collectAggs(sel, sp.exprs)
	sp.grouped = len(sel.GroupBy) > 0 || len(sp.aggCalls) > 0
	if sp.grouped {
		sp.estGroups = db.estGroupsFor(es, sel)
		sp.aggOp = es.tracef("hash aggregate (%d group cols, %d aggs) (est groups=%d)",
			len(sel.GroupBy), len(sp.aggCalls), sp.estGroups)
	}
	if sel.Distinct {
		es.plainf("distinct (hash)")
	}
	if sp.spec != nil {
		if topKEligible(sel) {
			sp.sortOp = es.tracef("sort: top-k (k=%d)", sel.Limit)
		} else {
			sp.sortOp = es.tracef("sort (%d keys)", len(sp.spec.exprs))
		}
	}
	return sp
}

// buildFrom constructs the join tree for the FROM clause: an access path
// for the first table, then one join per subsequent table. WHERE
// conjuncts that reference a single binding are pushed down to that
// binding's scan or join build, so intermediate results stay small; the
// outer residual filters re-check the full predicate for correctness.
func (db *DB) buildFrom(es *execState, sel *Select) (batchIter, error) {
	if len(sel.From) > maxFromEntries {
		return nil, fmt.Errorf("sql: a SELECT reads at most %d tables, got %d", maxFromEntries, len(sel.From))
	}
	conjs := conjuncts(sel.Where)
	entries := make([]fromEntry, len(sel.From))
	for i, ref := range sel.From {
		t, err := es.snap.cat.table(ref.Table)
		if err != nil {
			return nil, err
		}
		entries[i] = fromEntry{ref, t, i}
	}
	// Reject ambiguous column references against the FULL schema before
	// any pushdown: a bare name unique within one binding but present in
	// several would otherwise silently bind to whichever table joins
	// first.
	full := &Schema{}
	for _, e := range entries {
		full = full.Concat(e.t.Schema(e.ref.Binding()))
	}
	checkRefs := func(e Expr) error {
		var ferr error
		walkExpr(e, func(e Expr) bool {
			if c, isRef := e.(*ColumnRef); isRef && ferr == nil {
				_, ferr = full.Find(c)
			}
			return ferr == nil
		})
		return ferr
	}
	for _, c := range conjs {
		if err := checkRefs(c); err != nil {
			return nil, err
		}
	}
	masks := bindingMasks(conjs, entries)

	// Greedy cost-based join ordering: smallest estimated stream first.
	// Without ORDER BY the rows come in this order's stream order, which
	// is deterministic for fixed statistics; orderJoins keeps the
	// syntactic order whenever a SELECT * pins it.
	entries = orderJoins(sel, entries, conjs, masks)

	// Classify conjuncts by the single entry they constrain (if any);
	// those are enforced exactly at the entry's scan, so only the
	// multi-binding residue needs the outer filter.
	pushdown := make([][]Expr, len(entries))
	var residual []Expr
	for i, c := range conjs {
		if m := masks[i]; m != 0 && m&(m-1) == 0 {
			owner := bits.TrailingZeros64(m)
			pushdown[owner] = append(pushdown[owner], c)
		} else {
			residual = append(residual, c)
		}
	}

	first := entries[0]
	it := scanWith(es, db.accessPath(es, first.t, first.ref.Binding(), conjs),
		pushdown[first.pos], true)
	// Residual conjuncts apply as soon as every column they reference is
	// in scope, so selective cross-binding predicates (join conditions,
	// structural tests) prune intermediate results early.
	pending := residual
	takeReady := func(schema *Schema) []Expr {
		var ready []Expr
		kept := pending[:0]
		for _, c := range pending {
			if resolvesIn(c, schema) {
				ready = append(ready, c)
			} else {
				kept = append(kept, c)
			}
		}
		pending = kept
		return ready
	}
	applyReady := func(it batchIter) batchIter {
		for _, c := range takeReady(it.Schema()) {
			it = newChunkFilter(it, c)
		}
		return it
	}
	it = applyReady(it)
	semi := semiJoins(sel, entries, masks)
	placed := first.bit()
	leftEst := estScanRows(first.t, first.ref.Binding(), conjs)
	for i, e := range entries[1:] {
		jest := estJoinRows(entries, i+1, placed, conjs, masks, leftEst)
		var conds []Expr
		if semi[i+1] {
			// Each left row passes at most once; the conjuncts that read the
			// entry are all ready here and run inside the join.
			jest = min(jest, leftEst)
			conds = takeReady(it.Schema().Concat(e.t.Schema(e.ref.Binding())))
		}
		it = db.buildJoin(es, it, e.t, e.ref.Binding(), conjs, pushdown[e.pos], jest, semi[i+1], conds)
		it = applyReady(it)
		placed |= e.bit()
		leftEst = jest
	}
	for _, c := range pending {
		rop := es.tracef("residual filter %s", ExprString(c))
		it = tracedBatchIf(rop, newChunkFilter(it, c))
	}
	return it, nil
}

// semiJoins marks, per FROM entry in join order, the entries that join
// as semi-joins. Only a SELECT DISTINCT without GROUP BY, aggregate or *
// has them: its result is the set of projected rows, and the copies of
// a left row that a join adds for each of its matches are rows DISTINCT
// drops. An entry after the first qualifies when no SELECT item and no
// ORDER BY term reads its columns and every conjunct that reads it
// reads no entry placed after it, so the semi-join can evaluate them
// all and nothing downstream reads the entry.
func semiJoins(sel *Select, entries []fromEntry, masks []uint64) []bool {
	semi := make([]bool, len(entries))
	if !sel.Distinct || len(sel.GroupBy) > 0 {
		return semi
	}
	var reads []Expr
	for _, it := range sel.Items {
		if it.Star {
			return semi
		}
		reads = append(reads, it.Expr)
	}
	if len(collectAggs(sel, reads)) > 0 {
		return semi
	}
	for _, o := range sel.OrderBy {
		reads = append(reads, o.Expr)
	}
	// A reference counts against every entry it could bind to: an ORDER
	// BY term may name an output alias that is also some table's column.
	var read uint64
	for _, e := range reads {
		walkExpr(e, func(e Expr) bool {
			if c, ok := e.(*ColumnRef); ok {
				for _, en := range entries {
					if refersTo(c, en.ref.Binding(), en.t) {
						read |= en.bit()
					}
				}
			}
			return true
		})
	}
	placed := entries[0].bit()
	for j := 1; j < len(entries); j++ {
		b := entries[j].bit()
		semi[j] = read&b == 0
		for _, m := range masks {
			if m&b != 0 && m&^(placed|b) != 0 {
				semi[j] = false
			}
		}
		placed |= b
	}
	return semi
}

// Explain plans a SELECT and renders the chosen access paths and join
// strategies without returning rows (the "meticulous analysis of the
// query plans" workflow of paper §3.2). It reads the view and applies
// the overrides o selects, exactly as QueryStmtOptsContext with the same
// o would, so it shows the plan that query runs; o.Trace is ignored.
func (db *DB) Explain(src string, o ExecOpts) (string, error) {
	stmt, err := Parse(src)
	if err != nil {
		return "", err
	}
	sel, ok := stmt.(*Select)
	if !ok {
		return "", fmt.Errorf("sql: Explain requires a SELECT, got %T", stmt)
	}
	o.Trace = obs.NewQueryTrace(false)
	if _, err := db.runSelect(context.Background(), sel, o, false); err != nil {
		return "", err
	}
	return o.Trace.Text(), nil
}

// resolvesIn reports whether every column reference in e resolves
// unambiguously in the schema: predCols's ok, without the column list
// that predCols allocates (the planner asks this per conjunct and per
// join step of every execution).
func resolvesIn(e Expr, schema *Schema) bool {
	ok := true
	walkExpr(e, func(e Expr) bool {
		if c, isRef := e.(*ColumnRef); isRef && ok {
			_, n := schema.lookup(c)
			ok = n == 1
		}
		return ok
	})
	return ok
}

// maxFromEntries bounds the FROM list so that a set of entries fits one
// uint64 mask (bindingMasks).
const maxFromEntries = 64

// fromEntry pairs a FROM-clause reference with its resolved table and
// its position in the FROM list.
type fromEntry struct {
	ref TableRef
	t   *TableInfo
	pos int
}

// bit is the entry's bit in a mask of FROM entries.
func (e fromEntry) bit() uint64 { return 1 << e.pos }

// conjuncts flattens an AND tree into its conjuncts.
func conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return append(conjuncts(b.Left), conjuncts(b.Right)...)
	}
	return []Expr{e}
}

// colLiteral matches a conjunct of the form col op literal (either side),
// returning the column, comparison op (normalised so the column is on the
// left) and the literal value.
func colLiteral(e Expr) (*ColumnRef, string, value.Value, bool) {
	b, ok := e.(*BinaryExpr)
	if !ok || !isCompOp(b.Op) {
		return nil, "", value.Null, false
	}
	if c, ok := b.Left.(*ColumnRef); ok {
		if l, ok := b.Right.(*Literal); ok {
			return c, b.Op, l.Val, true
		}
	}
	if c, ok := b.Right.(*ColumnRef); ok {
		if l, ok := b.Left.(*Literal); ok {
			return c, flipOp(b.Op), l.Val, true
		}
	}
	return nil, "", value.Null, false
}

func flipOp(op string) string {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op
}

// refersTo reports whether the column reference can bind to the given
// table binding.
func refersTo(c *ColumnRef, binding string, t *TableInfo) bool {
	if c.Table != "" && !strings.EqualFold(c.Table, binding) {
		return false
	}
	return t.ColIndex(c.Column) >= 0
}

// indexesUsable reports whether the query may read secondary indexes:
// the view recorded whether its trees matched the heaps (inside a
// DeferIndexes window they do not even exist), and a rollback since then
// may have discarded pages its frozen trees reach. The lock the statement
// holds (readGate or db.mu) keeps a rollback from starting mid-query.
func (db *DB) indexesUsable(es *execState) bool {
	return es.snap.indexesOK && es.snap.rollbackGen == db.rollbackGen.Load()
}

// access is the access path chosen for one table: the table, the
// binding and schema it is read under, the chunk size the cost model
// picked, the rows it is expected to emit, the plan line's operator
// handle and, for an index path, the index with the equality/IN prefix
// values and optional trailing range to probe it with. Choosing it reads
// nothing: the scan operator collects an index path's RIDs when it first
// runs (DML calls the same collector), so a plain EXPLAIN never touches
// the index.
type access struct {
	t       *TableInfo
	binding string
	schema  *Schema
	batch   int
	// est is the plan line's est rows: the live row count for a
	// sequential scan, the rows its consumed bounds select for an index
	// path. An index join over the binding hashes past this many fetched
	// rows (indexJoin).
	est      float64
	deferred bool // sequential because index maintenance is deferred
	op       *obs.OpStats
	// ix is nil for a sequential heap scan.
	ix     *IndexInfo
	prefix [][]value.Value
	rng    *bound
}

// accessPath chooses the access path of one table and adds its plan line.
func (db *DB) accessPath(es *execState, t *TableInfo, binding string, conjs []Expr) *access {
	a := db.chooseAccess(es, t, binding, conjs)
	a.trace(es)
	return a
}

// trace adds the access path's plan line and keeps its operator handle.
// A join's build side traces only when the build runs, so its line
// appears in EXPLAIN ANALYZE and not in a plain EXPLAIN.
func (a *access) trace(es *execState) {
	switch {
	case a.deferred:
		a.op = es.tracef("scan %s as %s: sequential (index maintenance deferred) (batch=%d) (est rows=%d)",
			a.t.Name, a.binding, a.batch, estRowsInt(a.est))
	case a.ix == nil:
		a.op = es.tracef("scan %s as %s: sequential (batch=%d) (est rows=%d)",
			a.t.Name, a.binding, a.batch, estRowsInt(a.est))
	default:
		how := "prefix lookup"
		if a.rng != nil {
			how = "prefix+range scan"
		}
		a.op = es.tracef("scan %s as %s: index %s (%s, %d leading cols) (batch=%d) (est rows=%d)",
			a.t.Name, a.binding, a.ix.Name, how, len(a.prefix), a.batch, estRowsInt(a.est))
	}
}

// chooseAccess chooses between a sequential scan and an index scan for
// one table, based on the WHERE conjuncts, and traces nothing. The full
// predicate is re-checked by the surrounding filter, so index selection
// is purely an access-path optimisation.
func (db *DB) chooseAccess(es *execState, t *TableInfo, binding string, conjs []Expr) *access {
	a := &access{t: t, binding: binding, schema: t.Schema(binding), batch: defaultChunkCap}
	if !db.indexesUsable(es) {
		// Bulk load in progress: the secondary indexes miss the freshly
		// loaded rows until ResumeIndexes rebuilds them, so only the
		// heaps are trustworthy. The plan still carries its estimate.
		a.est = float64(t.Heap.Count())
		a.batch = batchSizeFor(a.est)
		a.deferred = true
		return a
	}
	bounds := map[int]*bound{} // column position -> constraints
	boundFor := func(pos int) *bound {
		b := bounds[pos]
		if b == nil {
			b = &bound{}
			bounds[pos] = b
		}
		return b
	}
	for _, c := range conjs {
		// IN over literals at an index's leading column becomes a union
		// of point lookups.
		if in, ok := c.(*InExpr); ok && allLiterals(in.List) {
			if col, ok := in.Expr.(*ColumnRef); ok && refersTo(col, binding, t) {
				b := boundFor(t.ColIndex(col.Column))
				for _, le := range in.List {
					b.in = append(b.in, le.(*Literal).Val)
				}
			}
			continue
		}
		col, op, lit, ok := colLiteral(c)
		if !ok || !refersTo(col, binding, t) {
			continue
		}
		b := boundFor(t.ColIndex(col.Column))
		v := lit
		switch op {
		case OpEq:
			b.eq = &v
		case OpGt:
			b.lo, b.loStrict = &v, true
		case OpGe:
			b.lo = &v
		case OpLt:
			b.hi, b.hiStrict = &v, true
		case OpLe:
			b.hi = &v
		}
	}
	// Choose the index matching the most leading equality (or small IN)
	// columns, with a trailing range as a tiebreaker. IN lists expand to
	// a union of point lookups, capped so a huge list degrades to a scan
	// instead of exploding.
	const maxPrefixProduct = 512
	var best *IndexInfo
	bestScore := 0
	var bestPrefix [][]value.Value
	var bestRange *bound
	for _, ix := range t.Indexes {
		var prefix [][]value.Value
		var rng *bound
		score := 0
		product := 1
		for _, pos := range ix.ColPos {
			b := bounds[pos]
			if b == nil {
				break
			}
			// Exact equality scores above IN expansion: a point lookup
			// returns exactly the matching entries, while an IN fans out
			// into one lookup per candidate value.
			if b.eq != nil {
				prefix = append(prefix, []value.Value{*b.eq})
				score += 3
				continue
			}
			if len(b.in) > 0 && product*len(b.in) <= maxPrefixProduct {
				prefix = append(prefix, b.in)
				product *= len(b.in)
				score += 2
				continue
			}
			if b.lo != nil || b.hi != nil {
				rng = b
				score++
			}
			break
		}
		if score > bestScore {
			best, bestScore, bestPrefix, bestRange = ix, score, prefix, rng
		}
	}
	// The scan operator emits every live row (filters are separate
	// operators), so its estimate is the live row count; an index path's
	// estimate is the rows its consumed bounds are expected to fetch.
	rows := t.Heap.Count()
	estIdx := 0.0
	if best != nil {
		estIdx = estIndexMatchRows(t, best, len(bestPrefix), bestRange != nil, bounds)
		// Cost decision: when statistics say the index would fetch most of
		// the table anyway (e.g. an equality on a heavily skewed value, or
		// a range spanning the whole observed domain), random-order heap
		// fetches lose to a sequential read.
		if int64(rows) >= seqFallbackMinRows && estIdx >= seqFallbackFrac*float64(rows) {
			best = nil
		}
	}
	if best == nil {
		// The batch annotation is part of the plan: the cost model picks
		// the chunk size from the scan's row estimate.
		a.est = float64(rows)
		a.batch = batchSizeFor(a.est)
		return a
	}
	a.est = estIdx
	a.batch = batchSizeFor(estIdx)
	a.ix, a.prefix, a.rng = best, bestPrefix, bestRange
	return a
}

// scanWith builds the scan of an access decision with its binding's
// pushed-down filters: the sequential or index scan with one chunk
// filter per conjunct. lines gives each filter a plan line of its own,
// as the driving table's scan shows them.
func scanWith(es *execState, a *access, filters []Expr, lines bool) batchIter {
	var it batchIter = &chunkScanIter{es: es, a: a}
	if a.ix != nil {
		it = &chunkRIDIter{es: es, a: a}
	}
	it = tracedBatchIf(a.op, it)
	for _, c := range filters {
		var fop *obs.OpStats
		if lines {
			fop = es.tracef("  filter %s", ExprString(c))
		}
		it = tracedBatchIf(fop, newChunkFilter(it, c))
	}
	return it
}

// prefixCombos enumerates the cartesian product of per-column candidate
// values as encoded key prefixes.
func prefixCombos(prefix [][]value.Value) [][]byte {
	out := [][]byte{nil}
	for _, vals := range prefix {
		next := make([][]byte, 0, len(out)*len(vals))
		for _, base := range out {
			for _, v := range vals {
				next = append(next, v.EncodeKey(append([]byte(nil), base...)))
			}
		}
		out = next
	}
	return out
}

// bound collects the constraints WHERE places on one column.
type bound struct {
	eq       *value.Value
	in       []value.Value // literal IN list
	lo, hi   *value.Value
	loStrict bool
	hiStrict bool
}

// rids collects the RIDs of an index path, in index order: one B-tree
// scan per equality/IN prefix combination, bounded by the trailing range
// when there is one.
func (a *access) rids(es *execState) ([]heap.RID, error) {
	var rids []heap.RID
	var cerr error
	collect := func(key, val []byte) bool {
		if cerr = es.poll(); cerr != nil {
			return false
		}
		rids = append(rids, ridFromBytes(val))
		return true
	}
	for _, prefix := range prefixCombos(a.prefix) {
		var err error
		es.btreeSearch()
		switch rng := a.rng; {
		case rng == nil:
			err = a.ix.BTree.ScanPrefix(prefix, collect)
		default:
			// Range on the column after the prefix. Strictness is
			// re-checked by the filter, so the scan may be slightly loose
			// at the lower bound.
			from := append([]byte(nil), prefix...)
			if rng.lo != nil {
				from = (*rng.lo).EncodeKey(from)
			}
			var to []byte
			if rng.hi != nil {
				to = (*rng.hi).EncodeKey(append([]byte(nil), prefix...))
				// Include keys equal to hi (plus RID suffix) by extending
				// the bound past any suffix bytes.
				to = append(to, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
			}
			err = a.ix.BTree.ScanRange(from, to, func(key, val []byte) bool {
				if len(prefix) > 0 && !strings.HasPrefix(string(key), string(prefix)) {
					return false
				}
				return collect(key, val)
			})
		}
		if err != nil {
			return nil, err
		}
		if cerr != nil {
			return nil, cerr
		}
	}
	return rids, nil
}
