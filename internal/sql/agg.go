package sql

import (
	"fmt"
	"time"

	"xomatiq/internal/value"
)

// aggBinding pairs a mutable Literal placeholder inside a bound
// expression clone with the aggregate (index into aggCalls) it stands
// for. The emitter stores each group's aggregate results into the
// placeholders and re-evaluates the clone — no per-group expression
// cloning or map allocation.
type aggBinding struct {
	lit *Literal
	agg int
}

// bindAggs clones e with aggregate calls replaced by mutable Literal
// placeholders, appending one binding per replaced call.
func bindAggs(e Expr, idx map[*FuncCall]int, binds *[]aggBinding) Expr {
	switch e := e.(type) {
	case *FuncCall:
		if i, ok := idx[e]; ok {
			lit := &Literal{}
			*binds = append(*binds, aggBinding{lit: lit, agg: i})
			return lit
		}
		ne := &FuncCall{Name: e.Name, Star: e.Star}
		for _, a := range e.Args {
			ne.Args = append(ne.Args, bindAggs(a, idx, binds))
		}
		return ne
	case *BinaryExpr:
		return &BinaryExpr{Op: e.Op, Left: bindAggs(e.Left, idx, binds), Right: bindAggs(e.Right, idx, binds)}
	case *NotExpr:
		return &NotExpr{Expr: bindAggs(e.Expr, idx, binds)}
	case *LikeExpr:
		return &LikeExpr{Expr: bindAggs(e.Expr, idx, binds), Pattern: bindAggs(e.Pattern, idx, binds), Not: e.Not}
	case *InExpr:
		ne := &InExpr{Expr: bindAggs(e.Expr, idx, binds), Not: e.Not}
		for _, x := range e.List {
			ne.List = append(ne.List, bindAggs(x, idx, binds))
		}
		return ne
	}
	return e
}

// hashAgg is the vectorized hash aggregation operator: group keys
// encode straight from the chunk column vectors into a reused arena,
// the group table maps the encoded key to a slot index with zero-alloc
// lookups (the key string is allocated only for a new group), and the
// accumulators are flat per-aggregate columns indexed by slot. Slot
// order is first appearance, matching the row engine's output order.
type hashAgg struct {
	sel      *Select
	in       *Schema
	aggCalls []*FuncCall

	keySrcs []valSrc // one per GROUP BY expression
	keyCols []int    // when non-nil, every key source is this input column
	argSrcs []valSrc // one per aggregate; unused for COUNT(*)
	star    []bool
	fname   []string

	slots map[string]int
	reprs []value.Tuple // first input row of each group (group-col output)

	// Accumulators, [aggregate][slot]. counts doubles as the "started"
	// test: a slot's aggregate saw a non-null input iff its count > 0.
	counts [][]int64
	sumF   [][]float64
	sumI   [][]int64
	allInt [][]bool
	minmax [][]value.Value

	keyBuf  []byte
	scratch value.Tuple
	row     Row
}

func newHashAgg(sel *Select, in *Schema, aggCalls []*FuncCall, estGroups int64) *hashAgg {
	h := &hashAgg{sel: sel, in: in, aggCalls: aggCalls}
	allCols := true
	for _, ge := range sel.GroupBy {
		src := compileValSrc(ge, in)
		h.keySrcs = append(h.keySrcs, src)
		if src.colIdx < 0 {
			allCols = false
		}
	}
	if allCols && len(h.keySrcs) > 0 {
		for _, src := range h.keySrcs {
			h.keyCols = append(h.keyCols, src.colIdx)
		}
	}
	for _, fc := range aggCalls {
		h.star = append(h.star, fc.Star)
		h.fname = append(h.fname, fc.Name)
		if fc.Star {
			h.argSrcs = append(h.argSrcs, valSrc{colIdx: -1})
		} else {
			h.argSrcs = append(h.argSrcs, compileValSrc(fc.Args[0], in))
		}
	}
	hint := int(estGroups)
	if hint < 8 {
		hint = 8
	} else if hint > 1<<16 {
		hint = 1 << 16
	}
	h.slots = make(map[string]int, hint)
	n := len(aggCalls)
	h.counts = make([][]int64, n)
	h.sumF = make([][]float64, n)
	h.sumI = make([][]int64, n)
	h.allInt = make([][]bool, n)
	h.minmax = make([][]value.Value, n)
	h.scratch = make(value.Tuple, len(in.Cols))
	h.row = Row{Schema: in, Values: h.scratch}
	return h
}

// addSlot appends a new group with the given representative row and
// zeroed accumulators, returning its slot index.
func (h *hashAgg) addSlot(repr value.Tuple) int {
	slot := len(h.reprs)
	h.reprs = append(h.reprs, repr)
	for a := range h.aggCalls {
		h.counts[a] = append(h.counts[a], 0)
		h.sumF[a] = append(h.sumF[a], 0)
		h.sumI[a] = append(h.sumI[a], 0)
		h.allInt[a] = append(h.allInt[a], true)
		h.minmax[a] = append(h.minmax[a], value.Null)
	}
	return slot
}

// slotFor encodes the row's group key into the reused arena and returns
// its slot, creating the group on first sight. The map lookup on the
// raw buffer allocates nothing; only a new group copies the key.
func (h *hashAgg) slotFor(c *chunk, r int) (int, error) {
	h.keyBuf = h.keyBuf[:0]
	if h.keyCols != nil {
		for _, col := range h.keyCols {
			h.keyBuf = c.Value(col, r).Encode(h.keyBuf)
		}
	} else {
		for i := range h.keySrcs {
			v, err := h.keySrcs[i].eval(c, r, h.row)
			if err != nil {
				return 0, err
			}
			h.keyBuf = v.Encode(h.keyBuf)
		}
	}
	if slot, ok := h.slots[string(h.keyBuf)]; ok {
		return slot, nil
	}
	slot := h.addSlot(c.TupleAt(r))
	h.slots[string(h.keyBuf)] = slot
	return slot, nil
}

// accumulateChunk folds a whole chunk into the accumulators. Group
// slots were resolved once per row by the caller; each aggregate then
// sweeps the chunk like a column, with the aggregate dispatch and the
// accumulator column lookups hoisted out of the row loop.
func (h *hashAgg) accumulateChunk(c *chunk, rows, slots []int) error {
	for a := range h.aggCalls {
		counts := h.counts[a]
		if h.star[a] { // COUNT(*)
			for _, s := range slots {
				counts[s]++
			}
			continue
		}
		src := &h.argSrcs[a]
		col := src.colIdx
		arg := func(k int) (value.Value, error) {
			if col >= 0 {
				return c.Value(col, rows[k]), nil
			}
			return src.eval(c, rows[k], h.row)
		}
		switch h.fname[a] {
		case "SUM":
			sumF, sumI, allInt := h.sumF[a], h.sumI[a], h.allInt[a]
			for k, s := range slots {
				v, err := arg(k)
				if err != nil {
					return err
				}
				if v.IsNull() {
					continue
				}
				f, ok := v.AsNumeric()
				if !ok {
					return fmt.Errorf("sql: %s of non-numeric %s", h.fname[a], v.Kind())
				}
				counts[s]++
				sumF[s] += f
				if v.Kind() == value.KindInt {
					sumI[s] += v.Int()
				} else {
					allInt[s] = false
				}
			}
		case "MIN":
			minmax := h.minmax[a]
			for k, s := range slots {
				v, err := arg(k)
				if err != nil {
					return err
				}
				if v.IsNull() {
					continue
				}
				if counts[s] == 0 || value.Compare(v, minmax[s]) < 0 {
					minmax[s] = v
				}
				counts[s]++
			}
		case "MAX":
			minmax := h.minmax[a]
			for k, s := range slots {
				v, err := arg(k)
				if err != nil {
					return err
				}
				if v.IsNull() {
					continue
				}
				if counts[s] == 0 || value.Compare(v, minmax[s]) > 0 {
					minmax[s] = v
				}
				counts[s]++
			}
		default: // COUNT(expr): non-null inputs
			for k, s := range slots {
				v, err := arg(k)
				if err != nil {
					return err
				}
				if !v.IsNull() {
					counts[s]++
				}
			}
		}
	}
	return nil
}

// result materialises one aggregate of one group.
func (h *hashAgg) result(a, slot int) value.Value {
	switch h.fname[a] {
	case "COUNT":
		return value.NewInt(h.counts[a][slot])
	case "SUM":
		if h.counts[a][slot] == 0 {
			return value.Null
		}
		if h.allInt[a][slot] {
			return value.NewInt(h.sumI[a][slot])
		}
		return value.NewFloat(h.sumF[a][slot])
	case "MIN", "MAX":
		if h.counts[a][slot] == 0 {
			return value.Null
		}
		return h.minmax[a][slot]
	}
	return value.Null
}

// poisonScratch scribbles the reused key arena and scratch row between
// chunks under the chunkPoison test hook, so any group key or
// representative row that illegally aliases them corrupts detectably.
func (h *hashAgg) poisonScratch() {
	for i := range h.keyBuf {
		h.keyBuf[i] = 0xDB
	}
	h.keyBuf = h.keyBuf[:cap(h.keyBuf)]
	for i := range h.keyBuf {
		h.keyBuf[i] = 0xDB
	}
	for i := range h.scratch {
		h.scratch[i] = value.Value{}
	}
}

// outSrc is one compiled output column of the aggregate emitter.
type outSrc struct {
	agg    int  // >= 0: the expression IS this aggregate call
	colIdx int  // >= 0: a group-by input column, read from the repr
	expr   Expr // bound clone for everything else
	binds  []aggBinding
}

// runAggregate executes grouped/aggregated SELECTs: one vectorized
// accumulation pass over the batch stream, then per-group emission
// through the shared result sink (DISTINCT, ORDER BY, LIMIT).
func (db *DB) runAggregate(es *execState, sel *Select, it batchIter, sp *sinkPlan) (*Rows, error) {
	in := it.Schema()
	h := newHashAgg(sel, in, sp.aggCalls, sp.estGroups)
	start := time.Now()
	rows := make([]int, 0, defaultChunkCap)
	slots := make([]int, 0, defaultChunkCap)
	for {
		c, err := it.NextChunk()
		if err != nil {
			return nil, err
		}
		if c == nil {
			break
		}
		rows, slots = rows[:0], slots[:0]
		for k, n := 0, c.Rows(); k < n; k++ {
			if err := es.poll(); err != nil {
				return nil, err
			}
			r := c.RowIdx(k)
			slot, err := h.slotFor(c, r)
			if err != nil {
				return nil, err
			}
			rows = append(rows, r)
			slots = append(slots, slot)
		}
		if err := h.accumulateChunk(c, rows, slots); err != nil {
			return nil, err
		}
		if chunkPoison {
			h.poisonScratch()
		}
	}
	// A query with aggregates but no GROUP BY yields one row even over
	// empty input.
	if len(h.reprs) == 0 && len(sel.GroupBy) == 0 {
		h.addSlot(make(value.Tuple, len(in.Cols)))
	}
	groups := len(h.reprs)
	sp.aggOp.AddRows(int64(groups))
	sp.aggOp.AddSince(start)
	sp.aggOp.Notef("groups=%d", groups)
	if es != nil && es.reg != nil {
		es.reg.Exec.AggGroups.Add(uint64(groups))
	}
	return db.emitAggregate(es, sel, h, sp)
}

// emitAggregate walks the group slots in first-appearance order,
// evaluates the output row and sort keys via precompiled sources, and
// pushes into the result sink.
func (db *DB) emitAggregate(es *execState, sel *Select, h *hashAgg, sp *sinkPlan) (*Rows, error) {
	aggIdx := make(map[*FuncCall]int, len(h.aggCalls))
	for i, fc := range h.aggCalls {
		aggIdx[fc] = i
	}
	srcs := make([]outSrc, len(sp.exprs))
	for i, e := range sp.exprs {
		s := outSrc{agg: -1, colIdx: -1}
		if fc, ok := e.(*FuncCall); ok {
			if a, hit := aggIdx[fc]; hit {
				s.agg = a
				srcs[i] = s
				continue
			}
		}
		if cr, ok := e.(*ColumnRef); ok {
			if pos, err := h.in.Find(cr); err == nil {
				s.colIdx = pos
				srcs[i] = s
				continue
			}
		}
		s.expr = bindAggs(e, aggIdx, &s.binds)
		srcs[i] = s
	}
	// Order keys that are not output columns evaluate their own bound
	// clones against the representative row.
	spec := sp.spec
	var keyExprs []Expr
	var keyBinds [][]aggBinding
	if spec != nil {
		keyExprs = make([]Expr, len(spec.exprs))
		keyBinds = make([][]aggBinding, len(spec.exprs))
		for i := range spec.exprs {
			if spec.outPos[i] >= 0 {
				continue
			}
			keyExprs[i] = bindAggs(spec.exprs[i], aggIdx, &keyBinds[i])
		}
	}

	sink := newResultSink(es, sel, sp.names, spec, sp.sortOp)
	aggRes := make([]value.Value, len(h.aggCalls))
	setBinds := func(binds []aggBinding) {
		for _, b := range binds {
			b.lit.Val = aggRes[b.agg]
		}
	}
	for slot := range h.reprs {
		if sink.full() {
			break
		}
		if err := es.poll(); err != nil {
			return nil, err
		}
		for a := range h.aggCalls {
			aggRes[a] = h.result(a, slot)
		}
		row := Row{Schema: h.in, Values: h.reprs[slot]}
		vals := make(value.Tuple, len(srcs))
		for i := range srcs {
			s := &srcs[i]
			switch {
			case s.agg >= 0:
				vals[i] = aggRes[s.agg]
			case s.colIdx >= 0:
				vals[i] = h.reprs[slot][s.colIdx]
			default:
				setBinds(s.binds)
				v, err := Eval(s.expr, row)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
		}
		var keys value.Tuple
		if spec != nil {
			keys = make(value.Tuple, len(spec.exprs))
			for i := range spec.exprs {
				if p := spec.outPos[i]; p >= 0 {
					keys[i] = vals[p]
					continue
				}
				setBinds(keyBinds[i])
				v, err := Eval(keyExprs[i], row)
				if err != nil {
					return nil, fmt.Errorf("sql: ORDER BY: %w", err)
				}
				keys[i] = v
			}
		}
		sink.push(vals, keys)
	}
	return sink.finish(), nil
}
