package sql

import (
	"fmt"
	"strings"

	"xomatiq/internal/value"
)

// expandItems resolves SELECT items against the input schema, expanding *
// into all input columns. Returns the output expressions and names.
func expandItems(sel *Select, in *Schema) (exprs []Expr, names []string) {
	for _, item := range sel.Items {
		if item.Star {
			for _, c := range in.Cols {
				exprs = append(exprs, &ColumnRef{Table: c.Table, Column: c.Name})
				names = append(names, c.Name)
			}
			continue
		}
		exprs = append(exprs, item.Expr)
		if item.Alias != "" {
			names = append(names, item.Alias)
		} else {
			names = append(names, ExprString(item.Expr))
		}
	}
	return exprs, names
}

// orderSpec computes order keys for output rows. A bare column reference
// that names an output alias (or an expression textually equal to an
// output item) sorts by that output column; anything else is evaluated
// against the input schema. This makes both ORDER BY alias and
// ORDER BY input_col work, preferring the output when names collide.
type orderSpec struct {
	exprs  []Expr
	desc   []bool
	outPos []int // >= 0: sort by this output column; -1: evaluate expr
	in     *Schema
}

func newOrderSpec(sel *Select, in *Schema, names []string) *orderSpec {
	if len(sel.OrderBy) == 0 {
		return nil
	}
	spec := &orderSpec{in: in}
	for _, o := range sel.OrderBy {
		pos := -1
		target := ""
		if c, ok := o.Expr.(*ColumnRef); ok && c.Table == "" {
			target = c.Column
		} else {
			target = ExprString(o.Expr)
		}
		for i, n := range names {
			if strings.EqualFold(n, target) {
				pos = i
				break
			}
		}
		spec.exprs = append(spec.exprs, o.Expr)
		spec.desc = append(spec.desc, o.Desc)
		spec.outPos = append(spec.outPos, pos)
	}
	return spec
}

// collectAggs gathers the aggregate calls appearing in the SELECT
// (output expressions, ORDER BY). An aggregate's own arguments are not
// searched.
func collectAggs(sel *Select, exprs []Expr) []*FuncCall {
	var aggs []*FuncCall
	visit := func(e Expr) bool {
		if f, ok := e.(*FuncCall); ok && f.IsAggregate() {
			aggs = append(aggs, f)
			return false
		}
		return true
	}
	for _, e := range exprs {
		walkExpr(e, visit)
	}
	for _, o := range sel.OrderBy {
		walkExpr(o.Expr, visit)
	}
	return aggs
}

// project evaluates the SELECT items over a non-aggregated batch
// stream through precompiled value sources (column reads straight off
// the chunk vectors; expressions load only the columns they touch into
// a reused scratch row) and pushes into the shared result sink. In
// top-K mode (ORDER BY + LIMIT, no DISTINCT) the sort keys evaluate
// first into a reused scratch tuple, and rows the bounded heap would
// discard never materialise their output values at all.
func (db *DB) project(es *execState, sel *Select, it batchIter, sp *sinkPlan) (*Rows, error) {
	in := it.Schema()
	exprs, spec := sp.exprs, sp.spec
	outSrcs := make([]valSrc, len(exprs))
	for i, e := range exprs {
		outSrcs[i] = compileValSrc(e, in)
	}
	var keySrcs []valSrc
	if spec != nil {
		keySrcs = make([]valSrc, len(spec.exprs))
		for i := range spec.exprs {
			// An order key that names an output column evaluates that
			// output's expression directly against the input row — the two
			// are definitionally equal, and it keeps key evaluation
			// independent of the output tuple.
			ke := spec.exprs[i]
			if p := spec.outPos[i]; p >= 0 {
				ke = exprs[p]
			}
			keySrcs[i] = compileValSrc(ke, in)
		}
	}
	sink := newResultSink(es, sel, sp.names, spec, sp.sortOp)
	scratch := make(value.Tuple, len(in.Cols))
	row := Row{Schema: in, Values: scratch}
	keyScratch := make(value.Tuple, len(keySrcs))
	topK := sink.topK
loop:
	for !sink.full() {
		c, err := it.NextChunk()
		if err != nil {
			return nil, err
		}
		if c == nil {
			break
		}
		for k, n := 0, c.Rows(); k < n; k++ {
			if err := es.poll(); err != nil {
				return nil, err
			}
			r := c.RowIdx(k)
			if topK {
				for i := range keySrcs {
					v, err := keySrcs[i].eval(c, r, row)
					if err != nil {
						return nil, fmt.Errorf("sql: ORDER BY: %w", err)
					}
					keyScratch[i] = v
				}
				if !sink.wouldAccept(keyScratch) {
					continue
				}
			}
			vals := make(value.Tuple, len(outSrcs))
			for i := range outSrcs {
				v, err := outSrcs[i].eval(c, r, row)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			var keys value.Tuple
			if spec != nil {
				keys = make(value.Tuple, len(keySrcs))
				if topK {
					copy(keys, keyScratch)
				} else {
					for i := range keySrcs {
						v, err := keySrcs[i].eval(c, r, row)
						if err != nil {
							return nil, fmt.Errorf("sql: ORDER BY: %w", err)
						}
						keys[i] = v
					}
				}
			}
			sink.push(vals, keys)
			if sink.full() {
				break loop
			}
		}
		if chunkPoison {
			for i := range keyScratch {
				keyScratch[i] = value.Value{}
			}
			for i := range scratch {
				scratch[i] = value.Value{}
			}
		}
	}
	return sink.finish(), nil
}
