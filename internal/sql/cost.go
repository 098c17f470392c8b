// cost.go is the cost model behind the planner's statistics-driven
// decisions: index scan vs sequential scan, greedy join ordering by
// estimated output cardinality, and hash-join partition counts.
// Estimates combine live heap counts (rows, pages — always current) with
// the ANALYZE snapshot (NDV, min/max, frequency maps — see stats.go).
// Every estimate lands in the EXPLAIN output as "(est rows=N)" so plan
// goldens lock the model in.
package sql

import (
	"math"
	"slices"

	"xomatiq/internal/value"
)

// Default selectivities when statistics cannot answer precisely. The
// values follow the classic System R fractions.
const (
	defaultEqSel    = 0.1
	defaultRangeSel = 1.0 / 3
	defaultFuncSel  = 0.25
	defaultJoinSel  = 0.2
)

// liveRows reports the current row count of a table's heap.
func liveRows(t *TableInfo) float64 { return float64(t.Heap.Count()) }

// statsFor returns the ANALYZE snapshot for a column, or nil.
func statsFor(t *TableInfo, pos int) *colStats {
	if t.Stats == nil || pos < 0 || pos >= len(t.Stats.Cols) {
		return nil
	}
	return &t.Stats.Cols[pos]
}

// statsPopulation is the row count the selectivity fractions were
// measured over (floored at 1 so fractions stay finite).
func statsPopulation(t *TableInfo) float64 {
	if t.Stats == nil || t.Stats.Rows < 1 {
		return 1
	}
	return float64(t.Stats.Rows)
}

// eqSelectivity estimates the fraction of rows where column pos equals v.
func eqSelectivity(t *TableInfo, pos int, v value.Value) float64 {
	c := statsFor(t, pos)
	if c == nil {
		return defaultEqSel
	}
	rows := statsPopulation(t)
	if c.Freq != nil {
		// The map is exact over the analyzed population: a value it does
		// not hold matched (almost) nothing at ANALYZE time.
		if e, ok := c.Freq[string(v.EncodeKey(nil))]; ok {
			return clampSel(float64(e.N) / rows)
		}
		return clampSel(0.5 / rows)
	}
	if c.NDV > 0 {
		return clampSel(1 / float64(c.NDV))
	}
	return defaultEqSel
}

// rangeSelectivity estimates a one-sided comparison (op in < <= > >=)
// against a literal, interpolating within the analyzed min/max for
// numeric columns.
func rangeSelectivity(t *TableInfo, pos int, op string, v value.Value) float64 {
	c := statsFor(t, pos)
	if c == nil || c.Min.IsNull() || c.Max.IsNull() {
		return defaultRangeSel
	}
	lo, okLo := c.Min.AsNumeric()
	hi, okHi := c.Max.AsNumeric()
	f, okV := v.AsNumeric()
	if !okLo || !okHi || !okV || hi <= lo {
		// Non-numeric (or degenerate) ranges: fall back, except when the
		// literal is outside the observed bounds entirely.
		if cmpOutside(c, op, v) {
			return clampSel(0.5 / statsPopulation(t))
		}
		return defaultRangeSel
	}
	frac := (f - lo) / (hi - lo)
	if frac < 0 {
		frac = 0
	} else if frac > 1 {
		frac = 1
	}
	switch op {
	case OpLt, OpLe:
		return clampSel(frac)
	case OpGt, OpGe:
		return clampSel(1 - frac)
	}
	return defaultRangeSel
}

// cmpOutside reports whether the comparison provably excludes the whole
// observed [min, max] interval (works for any comparable kind).
func cmpOutside(c *colStats, op string, v value.Value) bool {
	switch op {
	case OpLt, OpLe:
		return value.Compare(v, c.Min) < 0
	case OpGt, OpGe:
		return value.Compare(v, c.Max) > 0
	}
	return false
}

// combineRange merges the selectivities of a lower and an upper bound on
// the same column. With real min/max statistics the inclusion-exclusion
// form s1+s2-1 is exact for interpolated fractions; when the bounds came
// from defaults it goes non-positive, so fall back to independence.
func combineRange(s1, s2 float64) float64 {
	if s := s1 + s2 - 1; s > 0 {
		return clampSel(s)
	}
	return clampSel(s1 * s2)
}

func clampSel(s float64) float64 {
	if s < 1e-9 {
		return 1e-9
	}
	if s > 1 {
		return 1
	}
	return s
}

// conjSelectivity estimates one conjunct's selectivity against a single
// binding of table t. Conjuncts it cannot decompose get defaults;
// constant conjuncts (the translator's "1 = 0" contradiction) evaluate
// exactly.
func conjSelectivity(t *TableInfo, binding string, c Expr) float64 {
	switch e := c.(type) {
	case *InExpr:
		if col, ok := e.Expr.(*ColumnRef); ok && refersTo(col, binding, t) && allLiterals(e.List) {
			s := 0.0
			for _, le := range e.List {
				s += eqSelectivity(t, t.ColIndex(col.Column), le.(*Literal).Val)
			}
			return clampSel(s)
		}
	case *FuncCall:
		return defaultFuncSel
	case *BinaryExpr:
		if e.Op == OpOr {
			l := conjSelectivity(t, binding, e.Left)
			r := conjSelectivity(t, binding, e.Right)
			return clampSel(l + r - l*r)
		}
		if e.Op == OpAnd {
			return clampSel(conjSelectivity(t, binding, e.Left) *
				conjSelectivity(t, binding, e.Right))
		}
	}
	if col, op, lit, ok := colLiteral(c); ok && refersTo(col, binding, t) {
		pos := t.ColIndex(col.Column)
		switch op {
		case OpEq:
			return eqSelectivity(t, pos, lit)
		case OpNe:
			return clampSel(1 - eqSelectivity(t, pos, lit))
		case OpLt, OpLe, OpGt, OpGe:
			return rangeSelectivity(t, pos, op, lit)
		}
	}
	// Constant conjuncts (no column references at all) evaluate exactly:
	// the translator emits "1 = 0" for paths absent from the dictionary.
	if resolvesIn(c, &Schema{}) {
		if v, err := Eval(c, Row{Schema: &Schema{}}); err == nil {
			if truthy(v) {
				return 1
			}
			return clampSel(0)
		}
	}
	return defaultRangeSel
}

// estScanRows estimates the rows one binding produces after its
// single-binding conjuncts are applied. Conjuncts that do not resolve
// purely within the binding are ignored (they apply at a join instead).
func estScanRows(t *TableInfo, binding string, conjs []Expr) float64 {
	rows := liveRows(t)
	schema := t.Schema(binding)
	sel := 1.0
	for _, c := range conjs {
		if resolvesIn(c, schema) {
			sel *= conjSelectivity(t, binding, c)
		}
	}
	return rows * sel
}

// seqFallbackMinRows and seqFallbackFrac gate the index-vs-scan cost
// decision: an index access path is abandoned for a sequential scan only
// when the table is big enough for the choice to matter AND the index is
// estimated to fetch at least half the rows anyway (each fetched row is
// a random heap Get; a sequential scan reads the same rows in page
// order). Small tables always keep their index paths, so the decision
// never perturbs point-lookup plans that were fine without statistics.
var (
	seqFallbackMinRows = int64(256)
	seqFallbackFrac    = 0.5
)

// estIndexMatchRows estimates how many rows an index access path fetches
// given the bounds it consumes: the leading nPrefix columns (equality or
// IN) plus an optional trailing range column.
func estIndexMatchRows(t *TableInfo, ix *IndexInfo, nPrefix int, rng bool, bounds map[int]*bound) float64 {
	rows := liveRows(t)
	sel := 1.0
	for i := 0; i < nPrefix && i < len(ix.ColPos); i++ {
		pos := ix.ColPos[i]
		b := bounds[pos]
		if b == nil {
			continue
		}
		if b.eq != nil {
			sel *= eqSelectivity(t, pos, *b.eq)
			continue
		}
		if len(b.in) > 0 {
			s := 0.0
			for _, v := range b.in {
				s += eqSelectivity(t, pos, v)
			}
			sel *= clampSel(s)
		}
	}
	if rng && nPrefix < len(ix.ColPos) {
		pos := ix.ColPos[nPrefix]
		if b := bounds[pos]; b != nil && (b.lo != nil || b.hi != nil) {
			s := 1.0
			if b.lo != nil {
				s = rangeSelectivity(t, pos, OpGe, *b.lo)
			}
			if b.hi != nil {
				s2 := rangeSelectivity(t, pos, OpLe, *b.hi)
				if b.lo != nil {
					s = combineRange(s, s2)
				} else {
					s = s2
				}
			}
			sel *= s
		}
	}
	return rows * sel
}

// batchSizeFor picks the chunk row capacity for an operator expected to
// emit est rows (scan estimates come from the PR 7 statistics): tiny
// streams get small chunks so point lookups don't drag a full-size
// arena around, everything else gets the default. Deterministic in the
// estimate, so EXPLAIN's (batch=k) annotation is stable plan text.
func batchSizeFor(est float64) int {
	if est <= 64 {
		return 64
	}
	return defaultChunkCap
}

// partitionsFor picks the build-side partition count of a partitioned
// hash join from the estimated build rows: one partition per ~2k rows,
// as a power of two, clamped to [1, 16]. Small builds keep a single
// partition (one plain hash table); large builds gain concurrent table
// construction and a bounded per-partition spill unit. Under a memory
// budget the count rises (up to 64) until the estimated resident bytes
// of one partition fit the budget, so a spilling join sheds memory in
// partition-sized steps instead of all-or-nothing.
func partitionsFor(est float64, budget int64, cols int) int {
	p := 1
	for float64(p)*2048 < est && p < 16 {
		p *= 2
	}
	if budget > 0 {
		estBytes := est * float64(spillRowBytes(cols))
		for estBytes/float64(p) > float64(budget) && p < 64 {
			p *= 2
		}
	}
	return p
}

// estRowsInt rounds an estimate for display.
func estRowsInt(est float64) int64 {
	if est < 0 || math.IsNaN(est) {
		return 0
	}
	return int64(est + 0.5)
}

// bindingMasks returns, per conjunct, the FROM entries its column
// references resolve to, as the union of their bits. It is 0 for a
// conjunct without references and for one with a reference that does
// not resolve to exactly one entry. The planner computes it once per
// statement, and join ordering, join estimates and pushdown read it.
func bindingMasks(conjs []Expr, entries []fromEntry) []uint64 {
	masks := make([]uint64, len(conjs))
	for i, c := range conjs {
		var m uint64
		walkExpr(c, func(e Expr) bool {
			cr, isRef := e.(*ColumnRef)
			if !isRef {
				return true
			}
			var hit uint64
			for _, en := range entries {
				if refersTo(cr, en.ref.Binding(), en.t) {
					if hit != 0 {
						hit = 0
						break
					}
					hit = en.bit()
				}
			}
			if hit == 0 {
				m = 0
				return false
			}
			m |= hit
			return true
		})
		masks[i] = m
	}
	return masks
}

// joinStep estimates the selectivity the cross-binding conjuncts apply
// when entry j joins the already-placed entries (a mask of their bits),
// and whether any conjunct connects them (an unconnected pick is a cross
// product). A conjunct applies when it reads j, some placed entry, and
// nothing else. The non-equality conjuncts over one set of entries are
// priced once, as one flat default: the two bounds of a descendant
// interval (x.node_id > b.node_id AND x.node_id <= b.last_desc) are one
// range, not two independent halvings.
func joinStep(entries []fromEntry, j int, placed uint64, conjs []Expr, masks []uint64) (sel float64, connected bool) {
	jbit := entries[j].bit()
	sel = 1.0
	var ranged []uint64
	for i, m := range masks {
		if m&jbit == 0 || m == jbit || m&^(placed|jbit) != 0 {
			continue
		}
		connected = true
		if b, ok := conjs[i].(*BinaryExpr); !ok || b.Op != OpEq {
			if slices.Contains(ranged, m) {
				continue
			}
			ranged = append(ranged, m)
		}
		sel *= crossConjSel(entries, j, conjs[i])
	}
	return sel, connected
}

// crossConjSel estimates one cross-binding conjunct. Equality between
// two columns uses the classic 1/NDV of the new side; everything else
// (descendant intervals, order comparisons) gets a flat default.
func crossConjSel(entries []fromEntry, j int, c Expr) float64 {
	b, ok := c.(*BinaryExpr)
	if !ok || b.Op != OpEq {
		return 0.5
	}
	jt := entries[j].t
	jb := entries[j].ref.Binding()
	for _, side := range []Expr{b.Left, b.Right} {
		cr, ok := side.(*ColumnRef)
		if !ok || !refersTo(cr, jb, jt) {
			continue
		}
		pos := jt.ColIndex(cr.Column)
		if cs := statsFor(jt, pos); cs != nil && cs.NDV > 0 {
			return clampSel(1 / float64(cs.NDV))
		}
		// No snapshot: guess distincts grow with the square root of the
		// table (keeps the guess deterministic and monotone).
		return clampSel(1 / math.Max(math.Sqrt(liveRows(jt)), 1))
	}
	return defaultJoinSel
}

// orderJoins reorders FROM entries greedily by estimated output
// cardinality: start from the smallest filtered binding, then repeatedly
// add the binding whose join produces the fewest estimated rows,
// preferring connected joins over cross products. A SELECT * pins the
// syntactic order (output column order follows FROM order). Ties keep
// the syntactic order, so the reorder is deterministic for fixed
// statistics.
func orderJoins(sel *Select, entries []fromEntry, conjs []Expr, masks []uint64) []fromEntry {
	if len(entries) < 2 {
		return entries
	}
	for _, it := range sel.Items {
		if it.Star {
			return entries
		}
	}
	base := make([]float64, len(entries))
	for i, e := range entries {
		base[i] = estScanRows(e.t, e.ref.Binding(), conjs)
	}
	used := make([]bool, len(entries))
	out := make([]fromEntry, 0, len(entries))
	// Seed with the smallest filtered binding.
	first := 0
	for i := 1; i < len(entries); i++ {
		if base[i] < base[first] {
			first = i
		}
	}
	out = append(out, entries[first])
	used[first] = true
	placed := entries[first].bit()
	cur := base[first]
	for len(out) < len(entries) {
		best, bestConn := -1, false
		bestCost := math.Inf(1)
		for j := range entries {
			if used[j] {
				continue
			}
			s, conn := joinStep(entries, j, placed, conjs, masks)
			cost := cur * base[j] * s
			if best == -1 || (conn && !bestConn) || (conn == bestConn && cost < bestCost) {
				best, bestConn, bestCost = j, conn, cost
			}
		}
		out = append(out, entries[best])
		used[best] = true
		placed |= entries[best].bit()
		cur = bestCost
	}
	return out
}

// estJoinRows estimates the output of joining the current stream (est
// leftEst rows) with one more binding, for the EXPLAIN line.
func estJoinRows(entries []fromEntry, j int, placed uint64, conjs []Expr, masks []uint64, leftEst float64) float64 {
	s, _ := joinStep(entries, j, placed, conjs, masks)
	return leftEst * estScanRows(entries[j].t, entries[j].ref.Binding(), conjs) * s
}

// estGroupsFor estimates the number of GROUP BY groups a SELECT will
// produce: the product of the NDVs of the grouping columns (statistics
// permitting; non-column expressions and unanalyzed columns default to
// 32), clamped by the product of the per-table scan estimates. No
// GROUP BY is a single group. Deterministic in the ANALYZE snapshot,
// so EXPLAIN's "(est groups=N)" is stable plan text, and it pre-sizes
// the hash aggregate's group table.
func (db *DB) estGroupsFor(es *execState, sel *Select) int64 {
	if len(sel.GroupBy) == 0 {
		return 1
	}
	conjs := conjuncts(sel.Where)
	type bound struct {
		t       *TableInfo
		binding string
	}
	var tables []bound
	total := 1.0
	for _, ref := range sel.From {
		t, err := es.snap.cat.table(ref.Table)
		if err != nil {
			continue
		}
		tables = append(tables, bound{t, ref.Binding()})
		total *= estScanRows(t, ref.Binding(), conjs)
	}
	prod := 1.0
	for _, ge := range sel.GroupBy {
		ndv := 32.0
		if cr, ok := ge.(*ColumnRef); ok {
			for _, tb := range tables {
				pos, err := tb.t.Schema(tb.binding).Find(cr)
				if err != nil {
					continue
				}
				if cs := statsFor(tb.t, pos); cs != nil && cs.NDV > 0 {
					ndv = float64(cs.NDV)
				}
				break
			}
		}
		prod *= ndv
	}
	if prod > total {
		prod = total
	}
	if prod < 1 {
		prod = 1
	}
	if prod > 1<<20 {
		prod = 1 << 20
	}
	return int64(prod)
}
