package sql

import (
	"context"
	"fmt"
	"strings"
	"time"

	"xomatiq/internal/obs"
	"xomatiq/internal/storage/disk"
	"xomatiq/internal/storage/heap"
	"xomatiq/internal/value"
)

// rowIter is the executor interface: a pull-based stream of tuples with a
// fixed schema.
type rowIter interface {
	Schema() *Schema
	Next() (value.Tuple, bool, error)
}

// cancelEvery is how many rows an executor loop processes between
// context polls: small enough that a cancelled scan over a large table
// stops promptly, large enough that the poll is noise per row.
const cancelEvery = 256

// execState is shared by every iterator of one query execution, so the
// poll counter accumulates across the whole plan: many small index
// probes cancel as promptly as one big scan. A nil state (the DML
// row-collection path) never cancels and never parallelises.
type execState struct {
	ctx   context.Context
	polls int
	// workers is the intra-query parallelism budget for scan operators
	// (Options.QueryWorkers); 0 or 1 keeps every scan serial.
	workers int
	// done is closed when the query finishes (success, error or early
	// LIMIT cut). Parallel scan workers select on it when handing off
	// page batches, so an abandoned iterator never strands goroutines.
	done chan struct{}
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
	// snap, when non-nil, is the pinned snapshot the query reads: table
	// lookups resolve in its frozen catalog view and never touch db.cat.
	// snapIndexes reports whether the snapshot's frozen B-trees are
	// trustworthy (indexes not deferred at publish, no rollback since);
	// false forces sequential access paths.
	snap        *Snap
	snapIndexes bool
}

// addSpillFile registers a spill file for end-of-query cleanup.
func (es *execState) addSpillFile(path string, f disk.File) {
	es.spillPaths = append(es.spillPaths, path)
	es.spillFiles = append(es.spillFiles, f)
}

// newExecState prepares the shared state for one query execution. The
// caller must invoke finish (normally via defer) once the query is done.
func newExecState(ctx context.Context, workers int) *execState {
	return &execState{ctx: ctx, workers: workers, done: make(chan struct{})}
}

// finish releases every goroutine still working for the query and
// removes its spill files. Cleanup failures are swallowed: the query's
// result (or error) is already determined, and an undeletable scratch
// file must not turn it into a failure.
func (es *execState) finish() {
	if es == nil {
		return
	}
	if es.done != nil {
		close(es.done)
	}
	for _, f := range es.spillFiles {
		_ = f.Close()
	}
	for _, p := range es.spillPaths {
		_ = es.fs.Remove(p)
	}
}

// poll returns ctx.Err() on every cancelEvery-th call.
func (es *execState) poll() error {
	if es == nil {
		return nil
	}
	es.polls++
	if es.polls%cancelEvery != 0 || es.ctx == nil {
		return nil
	}
	return es.ctx.Err()
}

// tracef appends a plan line to the query trace and returns its operator
// handle (nil when no trace, or when the trace is plan-only).
func (es *execState) tracef(format string, args ...any) *obs.OpStats {
	if es == nil {
		return nil
	}
	return es.qt.Linef(format, args...)
}

// plainf appends a plan line that never carries actuals (work folded
// into another operator, e.g. filters inside a parallel scan).
func (es *execState) plainf(format string, args ...any) {
	if es != nil {
		es.qt.Plainf(format, args...)
	}
}

// scannedPage feeds one visited heap page (with its decoded record
// count) to the registry. Safe from scan worker goroutines.
func (es *execState) scannedPage(records int) {
	if es == nil || es.reg == nil {
		return
	}
	es.reg.Heap.PagesScanned.Inc()
	es.reg.Heap.RecordsScanned.Add(uint64(records))
}

// btreeSearch feeds one B-tree prefix/range scan to the registry.
func (es *execState) btreeSearch() {
	if es != nil && es.reg != nil {
		es.reg.Index.BTreeSearches.Inc()
	}
}

// hashLookup feeds one hash-index lookup to the registry.
func (es *execState) hashLookup() {
	if es != nil && es.reg != nil {
		es.reg.Index.HashLookups.Inc()
	}
}

// tracedIter wraps an operator's input to record rows emitted and
// inclusive wall time (children included, as EXPLAIN ANALYZE reports it
// everywhere else). Only ever allocated when a trace collects actuals.
type tracedIter struct {
	in rowIter
	op *obs.OpStats
}

func (t *tracedIter) Schema() *Schema { return t.in.Schema() }

func (t *tracedIter) Next() (value.Tuple, bool, error) {
	start := time.Now()
	tup, ok, err := t.in.Next()
	t.op.Observe(ok && err == nil, time.Since(start))
	return tup, ok, err
}

// tracedIf wraps it with an actuals recorder when the plan line carries
// an operator handle; with tracing off (op nil) it returns it unchanged,
// so the normal query path pays nothing.
func tracedIf(op *obs.OpStats, it rowIter) rowIter {
	if op == nil {
		return it
	}
	return &tracedIter{in: it, op: op}
}

// runSelect plans and executes a SELECT under db.mu (read-held). qt, when
// non-nil, collects plan lines and per-operator actuals (EXPLAIN ANALYZE
// and slow-query traces); nil keeps the execution untraced. workers
// overrides Options.QueryWorkers for this query when positive (per-session
// overrides ride here); 0 inherits the DB-wide setting. memBudget
// likewise overrides Options.QueryMemBudget when positive.
func (db *DB) runSelect(ctx context.Context, sel *Select, o ExecOpts, snap *Snap) (*Rows, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("sql: SELECT requires FROM")
	}
	// Live-path defaults read db.opts under the db.mu the caller holds;
	// snapshot-mode callers hold no db.mu and must not race the setters,
	// so they read the atomic mirrors instead.
	workers := o.Workers
	if workers <= 0 {
		if snap != nil {
			workers = int(db.queryWorkers.Load())
		} else {
			workers = db.opts.QueryWorkers
		}
	}
	memBudget := o.MemBudget
	if memBudget <= 0 {
		if snap != nil {
			memBudget = db.queryMemBudget.Load()
		} else {
			memBudget = db.opts.QueryMemBudget
		}
	}
	es := newExecState(ctx, workers)
	es.reg = db.reg
	es.qt = o.Trace
	es.snap = snap
	if snap != nil {
		// One check per statement suffices: the readGate (held shared for
		// the whole statement) keeps a rollback from starting mid-query.
		es.snapIndexes = snap.indexesOK && db.rollbackGen.Load() == snap.rollbackGen
	}
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
	if hasAggregates(sel) {
		return db.runAggregate(es, sel, it, sp)
	}
	return db.project(es, sel, it, sp)
}

// sinkPlan carries the planned result-sink shape of one SELECT: the
// resolved output expressions/names, the order spec, the cost model's
// group estimate, and the plan-line operator handles the executor feeds
// with actuals (EXPLAIN ANALYZE "groups=G" / "runs=R" annotations).
type sinkPlan struct {
	exprs     []Expr
	names     []string
	spec      *orderSpec
	estGroups int64
	aggOp     *obs.OpStats
	sortOp    *obs.OpStats
}

// planSink resolves the SELECT's sink operators against the input
// schema and appends their plan lines (hash aggregate, having,
// distinct, sort) after the scan/join tree. Shared by execution and
// plain EXPLAIN, so the rendered plan always shows the sink strategy —
// including the top-K-vs-run-merge sort decision.
func (db *DB) planSink(es *execState, sel *Select, in *Schema) *sinkPlan {
	sp := &sinkPlan{}
	sp.exprs, sp.names = expandItems(sel, in)
	sp.spec = newOrderSpec(sel, in, sp.names)
	if hasAggregates(sel) {
		sp.estGroups = db.estGroupsFor(es, sel)
		sp.aggOp = es.tracef("hash aggregate (%d group cols, %d aggs) (est groups=%d)",
			len(sel.GroupBy), len(collectAggs(sel, sp.exprs)), sp.estGroups)
		if sel.Having != nil {
			es.plainf("  having %s", ExprString(sel.Having))
		}
	}
	if sel.Distinct {
		es.plainf("distinct (hash)")
	}
	if sp.spec != nil {
		if topKEligible(sel) {
			sp.sortOp = es.tracef("sort: top-k (k=%d)", sel.Offset+sel.Limit)
		} else {
			sp.sortOp = es.tracef("sort: run-merge (%d keys)", len(sp.spec.exprs))
		}
	}
	return sp
}

// tableFor resolves a table name for the executor: through the pinned
// snapshot's frozen catalog view when the query runs in snapshot mode,
// through the live catalog (caller holds db.mu) otherwise.
func (db *DB) tableFor(es *execState, name string) (*TableInfo, error) {
	if es.snap != nil {
		return es.snap.table(name)
	}
	return db.cat.table(name)
}

// buildFrom constructs the join tree for the FROM clause: an access path
// for the first table, then one join per subsequent table. WHERE
// conjuncts that reference a single binding are pushed down to that
// binding's scan or join build, so intermediate results stay small; the
// outer residual filters re-check the full predicate for correctness.
func (db *DB) buildFrom(es *execState, sel *Select) (batchIter, error) {
	conjs := conjuncts(sel.Where)
	entries := make([]fromEntry, len(sel.From))
	for i, ref := range sel.From {
		t, err := db.tableFor(es, ref.Table)
		if err != nil {
			return nil, err
		}
		entries[i] = fromEntry{ref, t}
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
		var walk func(Expr)
		walk = func(e Expr) {
			if ferr != nil {
				return
			}
			switch e := e.(type) {
			case *ColumnRef:
				if _, err := full.Find(e); err != nil {
					ferr = err
				}
			case *BinaryExpr:
				walk(e.Left)
				walk(e.Right)
			case *UnaryExpr:
				walk(e.Expr)
			case *LikeExpr:
				walk(e.Expr)
				walk(e.Pattern)
			case *InExpr:
				walk(e.Expr)
				for _, x := range e.List {
					walk(x)
				}
			case *BetweenExpr:
				walk(e.Expr)
				walk(e.Lo)
				walk(e.Hi)
			case *IsNullExpr:
				walk(e.Expr)
			case *FuncCall:
				for _, a := range e.Args {
					walk(a)
				}
			}
		}
		walk(e)
		return ferr
	}
	for _, c := range conjs {
		if err := checkRefs(c); err != nil {
			return nil, err
		}
	}
	for _, e := range entries {
		if e.ref.On != nil {
			if err := checkRefs(e.ref.On); err != nil {
				return nil, err
			}
		}
	}

	// Greedy cost-based join ordering: smallest estimated stream first.
	// Result SETS are order-insensitive here (no ORDER BY handling depends
	// on FROM order), and orderJoins keeps the syntactic order whenever a
	// SELECT * or an ON clause pins it.
	entries = orderJoins(sel, entries, conjs)

	// Classify conjuncts by the single binding they constrain (if any);
	// those are enforced exactly at the binding's scan, so only the
	// multi-binding residue needs the outer filter.
	pushdown := map[string][]Expr{}
	var residual []Expr
	for _, c := range conjs {
		owner := db.soleBinding(c, entries)
		if owner != "" {
			pushdown[owner] = append(pushdown[owner], c)
		} else {
			residual = append(residual, c)
		}
	}

	first := entries[0]
	rit, scanOp, err := db.accessPath(es, first.t, first.ref.Binding(), conjs)
	if err != nil {
		return nil, err
	}
	firstFilters := pushdown[strings.ToLower(first.ref.Binding())]
	// The actuals wrapper goes on AFTER the parallelize decision:
	// parallelizeScan type-asserts the bare seqScanIter, and when it wins,
	// the serial scan operator never runs (its plan line renders without
	// actuals) while the parallel operator carries its own handle. Both
	// branches produce the batched pipeline: chunks flow from here on.
	var it batchIter
	if pit, pop, ok := parallelizeScan(es, rit, firstFilters); ok {
		it = tracedBatchIf(pop, pit)
		for _, c := range firstFilters {
			// Filters fold into the scan workers, so the lines carry no
			// separate actuals.
			es.plainf("  filter %s", ExprString(c))
		}
	} else {
		it = tracedBatchIf(scanOp, toBatch(es, rit))
		for _, c := range firstFilters {
			fop := es.tracef("  filter %s", ExprString(c))
			it = tracedBatchIf(fop, newChunkFilter(it, c))
		}
	}
	// Residual conjuncts apply as soon as every column they reference is
	// in scope, so selective cross-binding predicates (join conditions,
	// structural tests) prune intermediate results early.
	pending := residual
	applyReady := func(it batchIter) batchIter {
		kept := pending[:0]
		for _, c := range pending {
			if resolvesIn(c, it.Schema()) {
				it = newChunkFilter(it, c)
			} else {
				kept = append(kept, c)
			}
		}
		pending = kept
		return it
	}
	it = applyReady(it)
	placed := map[string]bool{lowerBinding(first.ref): true}
	leftEst := estScanRows(first.t, first.ref.Binding(), conjs)
	for i, e := range entries[1:] {
		jest := estJoinRows(entries, i+1, placed, conjs, leftEst)
		it, err = db.buildJoin(es, it, e.t, e.ref, conjs,
			pushdown[strings.ToLower(e.ref.Binding())], jest)
		if err != nil {
			return nil, err
		}
		it = applyReady(it)
		placed[lowerBinding(e.ref)] = true
		leftEst = jest
	}
	for _, c := range pending {
		rop := es.tracef("residual filter %s", ExprString(c))
		it = tracedBatchIf(rop, newChunkFilter(it, c))
	}
	return it, nil
}

// Explain plans a SELECT and renders the chosen access paths and join
// strategies without returning rows (the "meticulous analysis of the
// query plans" workflow of paper §3.2).
func (db *DB) Explain(src string) (string, error) {
	stmt, err := Parse(src)
	if err != nil {
		return "", err
	}
	sel, ok := stmt.(*Select)
	if !ok {
		return "", fmt.Errorf("sql: Explain requires a SELECT, got %T", stmt)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	// A plan-only execState (never executed, so no done channel) lets the
	// trace report the parallel-scan decision the real run would make.
	qt := obs.NewQueryTrace(false)
	es := &execState{workers: db.opts.QueryWorkers, qt: qt, memBudget: db.opts.QueryMemBudget}
	it, err := db.buildFrom(es, sel)
	if err != nil {
		return "", err
	}
	db.planSink(es, sel, it.Schema())
	return qt.Text(), nil
}

// resolvesIn reports whether every column reference in e resolves
// unambiguously in the schema.
func resolvesIn(e Expr, schema *Schema) bool {
	ok := true
	var walk func(Expr)
	walk = func(e Expr) {
		if !ok {
			return
		}
		switch e := e.(type) {
		case *Literal:
		case *ColumnRef:
			if _, err := schema.Find(e); err != nil {
				ok = false
			}
		case *BinaryExpr:
			walk(e.Left)
			walk(e.Right)
		case *UnaryExpr:
			walk(e.Expr)
		case *LikeExpr:
			walk(e.Expr)
			walk(e.Pattern)
		case *InExpr:
			walk(e.Expr)
			for _, x := range e.List {
				walk(x)
			}
		case *BetweenExpr:
			walk(e.Expr)
			walk(e.Lo)
			walk(e.Hi)
		case *IsNullExpr:
			walk(e.Expr)
		case *FuncCall:
			for _, a := range e.Args {
				walk(a)
			}
		default:
			ok = false
		}
	}
	walk(e)
	return ok
}

// fromEntry pairs a FROM-clause reference with its resolved table.
type fromEntry struct {
	ref TableRef
	t   *TableInfo
}

// soleBinding returns the binding name (lowercased) that every column
// reference in e resolves to, or "" when the expression spans bindings,
// is ambiguous, or references nothing.
func (db *DB) soleBinding(e Expr, entries []fromEntry) string {
	owner := ""
	ok := true
	var walkExpr func(Expr)
	resolve := func(c *ColumnRef) {
		var hits []string
		for _, en := range entries {
			if refersTo(c, en.ref.Binding(), en.t) {
				hits = append(hits, strings.ToLower(en.ref.Binding()))
			}
		}
		if len(hits) != 1 {
			ok = false
			return
		}
		if owner == "" {
			owner = hits[0]
		} else if owner != hits[0] {
			ok = false
		}
	}
	walkExpr = func(e Expr) {
		if !ok {
			return
		}
		switch e := e.(type) {
		case *Literal:
		case *ColumnRef:
			resolve(e)
		case *BinaryExpr:
			walkExpr(e.Left)
			walkExpr(e.Right)
		case *UnaryExpr:
			walkExpr(e.Expr)
		case *LikeExpr:
			walkExpr(e.Expr)
			walkExpr(e.Pattern)
		case *InExpr:
			walkExpr(e.Expr)
			for _, x := range e.List {
				walkExpr(x)
			}
		case *BetweenExpr:
			walkExpr(e.Expr)
			walkExpr(e.Lo)
			walkExpr(e.Hi)
		case *IsNullExpr:
			walkExpr(e.Expr)
		case *FuncCall:
			for _, a := range e.Args {
				walkExpr(a)
			}
		default:
			ok = false
		}
	}
	walkExpr(e)
	if !ok || owner == "" {
		return ""
	}
	return owner
}

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

// indexesUsable reports whether the query may read secondary indexes.
// Snapshot mode never inspects live catalog state; the Snap recorded at
// publish whether its frozen B-trees were usable (snapIndexes also folds
// in rollback-generation staleness). Inside a DeferIndexes window the
// trees do not even exist.
func (db *DB) indexesUsable(es *execState) bool {
	if es.snap != nil {
		return es.snapIndexes
	}
	return !db.indexesDeferred
}

// accessPath chooses between a sequential scan and an index scan for one
// table, based on the WHERE conjuncts. The full predicate is re-checked
// by the surrounding filter, so index selection is purely an access-path
// optimisation. The returned iterator is NOT wrapped with the actuals
// recorder — callers apply tracedIf(op, it) themselves, after the
// parallelize decision, because parallelizeScan must see the bare
// seqScanIter and DML row collection needs the bare ridSource.
func (db *DB) accessPath(es *execState, t *TableInfo, binding string, conjs []Expr) (rowIter, *obs.OpStats, error) {
	schema := t.Schema(binding)
	if !db.indexesUsable(es) {
		// Bulk load in progress: the secondary indexes miss the freshly
		// loaded rows until ResumeIndexes rebuilds them, so only the
		// heaps are trustworthy.
		op := es.tracef("scan %s as %s: sequential (index maintenance deferred)", t.Name, binding)
		return &seqScanIter{es: es, t: t, schema: schema, batch: defaultChunkCap}, op, nil
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
		if in, ok := c.(*InExpr); ok && !in.Not && allLiterals(in.List) {
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
	// columns, with a trailing range as a tiebreaker. Hash indexes need
	// every column bound. IN lists expand to a union of point lookups,
	// capped so a huge list degrades to a scan instead of exploding.
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
			if (b.lo != nil || b.hi != nil) && !ix.UsingHash {
				rng = b
				score++
			}
			break
		}
		if ix.UsingHash && len(prefix) != len(ix.ColPos) {
			continue
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
		batch := batchSizeFor(float64(rows))
		op := es.tracef("scan %s as %s: sequential (batch=%d) (est rows=%d)", t.Name, binding, batch, rows)
		return &seqScanIter{es: es, t: t, schema: schema, batch: batch}, op, nil
	}
	how := "prefix lookup"
	if bestRange != nil {
		how = "prefix+range scan"
	}
	batch := batchSizeFor(estIdx)
	op := es.tracef("scan %s as %s: index %s (%s, %d leading cols) (batch=%d) (est rows=%d)",
		t.Name, binding, best.Name, how, len(bestPrefix), batch, estRowsInt(estIdx))
	// Index scans collect their RID list eagerly at construction; when
	// actuals are on, that work is attributed to the scan operator.
	var start time.Time
	if op != nil {
		start = time.Now()
	}
	var it rowIter
	var err error
	if best.UsingHash {
		it, err = newHashScanIter(es, t, schema, best, bestPrefix)
	} else {
		it, err = newBTreeScanIter(es, t, schema, best, bestPrefix, bestRange)
	}
	if rl, ok := it.(*ridListIter); ok {
		rl.batch = batch
	}
	op.AddSince(start)
	return it, op, err
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

// ridSource is a single-table iterator that can report the record ID of
// the row it just returned; DELETE and UPDATE need it.
type ridSource interface {
	rowIter
	CurrentRID() heap.RID
}

// seqScanIter scans a heap page at a time: each Next serves decoded rows
// of the current page, and page pins are held only inside ScanPage, so a
// full-table scan keeps O(page) rows in memory instead of the whole heap
// and a context cancel fires between pages of a long scan.
type seqScanIter struct {
	es     *execState
	t      *TableInfo
	schema *Schema
	// batch is the chunk capacity the cost model chose; toBatch carries
	// it into the batched form of this scan.
	batch   int
	started bool
	cur     disk.PageID // next page to load
	rids    []heap.RID  // rows of the page most recently loaded
	tups    []value.Tuple
	pos     int
}

func (s *seqScanIter) Schema() *Schema { return s.schema }

// CurrentRID reports the record id of the last row returned by Next.
func (s *seqScanIter) CurrentRID() heap.RID { return s.rids[s.pos-1] }

// loadPage decodes the rows of s.cur into the iterator's reused buffers
// and advances s.cur along the chain.
func (s *seqScanIter) loadPage() error {
	s.rids, s.tups, s.pos = s.rids[:0], s.tups[:0], 0
	var serr error
	next, _, err := s.t.Heap.ScanPage(s.cur, func(rid heap.RID, rec []byte) bool {
		if cerr := s.es.poll(); cerr != nil {
			serr = cerr
			return false
		}
		tup, derr := value.DecodeTuple(rec)
		if derr != nil {
			serr = derr
			return false
		}
		s.rids = append(s.rids, rid)
		s.tups = append(s.tups, tup)
		return true
	})
	if err != nil {
		return err
	}
	if serr != nil {
		return serr
	}
	s.es.scannedPage(len(s.tups))
	s.cur = next
	return nil
}

func (s *seqScanIter) Next() (value.Tuple, bool, error) {
	for {
		if s.pos < len(s.tups) {
			t := s.tups[s.pos]
			s.pos++
			return t, true, nil
		}
		if !s.started {
			s.started = true
			s.cur = s.t.Heap.FirstPage()
		}
		if s.cur == disk.InvalidPage {
			return nil, false, nil
		}
		if err := s.loadPage(); err != nil {
			return nil, false, err
		}
	}
}

// ridListIter yields the tuples behind a pre-computed RID list (index
// scans resolve to this).
type ridListIter struct {
	es     *execState
	t      *TableInfo
	schema *Schema
	rids   []heap.RID
	batch  int // chunk capacity for the batched form (see toBatch)
	pos    int
}

func (r *ridListIter) Schema() *Schema { return r.schema }

// CurrentRID reports the record id of the last row returned by Next.
func (r *ridListIter) CurrentRID() heap.RID { return r.rids[r.pos-1] }

func (r *ridListIter) Next() (value.Tuple, bool, error) {
	if err := r.es.poll(); err != nil {
		return nil, false, err
	}
	if r.pos >= len(r.rids) {
		return nil, false, nil
	}
	rec, err := r.t.Heap.Get(r.rids[r.pos])
	if err != nil {
		return nil, false, err
	}
	r.pos++
	tup, err := value.DecodeTuple(rec)
	if err != nil {
		return nil, false, err
	}
	return tup, true, nil
}

func newHashScanIter(es *execState, t *TableInfo, schema *Schema, ix *IndexInfo, prefix [][]value.Value) (rowIter, error) {
	var rids []heap.RID
	for _, key := range prefixCombos(prefix) {
		es.hashLookup()
		ix.Hash.Lookup(key, func(p []byte) bool {
			rids = append(rids, ridFromBytes(p))
			return true
		})
	}
	return &ridListIter{es: es, t: t, schema: schema, rids: rids}, nil
}

// bound collects the constraints WHERE places on one column.
type bound struct {
	eq       *value.Value
	in       []value.Value // literal IN list
	lo, hi   *value.Value
	loStrict bool
	hiStrict bool
}

// newBTreeScanIter scans the index for keys matching the equality/IN
// prefix combinations and optional trailing range, collecting RIDs.
func newBTreeScanIter(es *execState, t *TableInfo, schema *Schema, ix *IndexInfo, prefixVals [][]value.Value, rng *bound) (rowIter, error) {
	var rids []heap.RID
	var cerr error
	collect := func(key, val []byte) bool {
		if cerr = es.poll(); cerr != nil {
			return false
		}
		rids = append(rids, ridFromBytes(val))
		return true
	}
	for _, prefix := range prefixCombos(prefixVals) {
		var err error
		es.btreeSearch()
		switch {
		case rng == nil:
			err = ix.BTree.ScanPrefix(prefix, collect)
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
			err = ix.BTree.ScanRange(from, to, func(key, val []byte) bool {
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
	return &ridListIter{es: es, t: t, schema: schema, rids: rids}, nil
}

// filterIter drops rows for which pred is not true.
type filterIter struct {
	in   rowIter
	pred Expr
}

func (f *filterIter) Schema() *Schema { return f.in.Schema() }

func (f *filterIter) Next() (value.Tuple, bool, error) {
	for {
		tup, ok, err := f.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		v, err := Eval(f.pred, Row{Schema: f.in.Schema(), Values: tup})
		if err != nil {
			return nil, false, err
		}
		if truthy(v) {
			return tup, true, nil
		}
	}
}
