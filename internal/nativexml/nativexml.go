// Package nativexml evaluates XomatiQ queries directly over in-memory
// XML documents — the "special-purpose XML query processor" the paper
// argues against ("not mature enough to process large volumes of data",
// §2.2). It is the semantic reference for the XQ2SQL translator and the
// benchmark ledger's answer oracle.
package nativexml

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"xomatiq/internal/index/inverted"
	"xomatiq/internal/xmldoc"
	"xomatiq/internal/xq"
)

// ErrUnknownDatabase marks a path over a database absent from the
// corpus; the engine maps it to its public sentinel.
var ErrUnknownDatabase = errors.New("nativexml: unknown database")

// Corpus is the in-memory warehouse: database name to documents.
type Corpus map[string][]*xmldoc.Document

// Result is a materialised query result.
type Result struct {
	Columns []string
	Rows    [][]string
}

// binding is one candidate value for a FOR variable.
type binding struct {
	db   string
	doc  *xmldoc.Document
	node *xmldoc.Node
}

// evaluator carries per-query state.
type evaluator struct {
	corpus Corpus
	orders map[*xmldoc.Document]map[*xmldoc.Node]xmldoc.Dewey
	ctx    context.Context
	polls  int
}

// cancelEvery bounds how many candidate combinations are examined
// between context checks.
const cancelEvery = 256

// poll checks for cancellation every cancelEvery calls.
func (ev *evaluator) poll() error {
	ev.polls++
	if ev.polls%cancelEvery != 0 || ev.ctx == nil {
		return nil
	}
	return ev.ctx.Err()
}

// Eval runs a query over the corpus.
func Eval(corpus Corpus, q *xq.Query) (*Result, error) {
	return EvalContext(context.Background(), corpus, q)
}

// EvalContext runs a query over the corpus, aborting with ctx.Err() if
// the context is cancelled while the candidate cross product is being
// enumerated.
func EvalContext(ctx context.Context, corpus Corpus, q *xq.Query) (*Result, error) {
	q, err := q.ResolveLets()
	if err != nil {
		return nil, err
	}
	ev := &evaluator{
		corpus: corpus,
		orders: map[*xmldoc.Document]map[*xmldoc.Node]xmldoc.Dewey{},
		ctx:    ctx,
	}

	// Candidates per FOR variable.
	cands := make([][]binding, len(q.For))
	vars := make([]string, len(q.For))
	varIdx := map[string]int{}
	for i, b := range q.For {
		vars[i] = b.Var
		varIdx[b.Var] = i
		list, err := ev.bindCandidates(b.Path, varIdx, nil)
		if err != nil {
			return nil, fmt.Errorf("nativexml: binding $%s: %w", b.Var, err)
		}
		cands[i] = list
	}

	// Split WHERE into conjuncts; single-variable conjuncts pre-filter
	// their variable's candidates, the rest evaluate per combination.
	conjs := conjuncts(q.Where)
	var residual []xq.Expr
	for _, c := range conjs {
		vs := exprVars(c)
		if len(vs) == 1 {
			i := varIdx[vs[0]]
			kept := cands[i][:0]
			for _, cand := range cands[i] {
				if err := ev.poll(); err != nil {
					return nil, err
				}
				env := map[string]binding{vs[0]: cand}
				ok, err := ev.evalExpr(c, env)
				if err != nil {
					return nil, err
				}
				if ok {
					kept = append(kept, cand)
				}
			}
			cands[i] = kept
			continue
		}
		residual = append(residual, c)
	}

	res := &Result{}
	for _, r := range q.Return {
		res.Columns = append(res.Columns, r.Name())
	}
	seen := map[string]bool{}

	// Iterate the cross product of candidates.
	idx := make([]int, len(cands))
	for {
		if err := ev.poll(); err != nil {
			return nil, err
		}
		env := map[string]binding{}
		for i, v := range vars {
			if len(cands[i]) == 0 {
				return res, nil // empty cross product
			}
			env[v] = cands[i][idx[i]]
		}
		ok := true
		for _, c := range residual {
			match, err := ev.evalExpr(c, env)
			if err != nil {
				return nil, err
			}
			if !match {
				ok = false
				break
			}
		}
		if ok {
			if err := ev.emit(q, env, res, seen); err != nil {
				return nil, err
			}
		}
		// Advance the odometer.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(cands[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return res, nil
		}
	}
}

// emit produces the cartesian product of return-item matches for one
// satisfying environment (inner-join semantics, DISTINCT rows).
func (ev *evaluator) emit(q *xq.Query, env map[string]binding, res *Result, seen map[string]bool) error {
	matches := make([][]string, len(q.Return))
	for i, r := range q.Return {
		nodes, err := ev.evalPath(r.Path, env)
		if err != nil {
			return err
		}
		if len(nodes) == 0 {
			return nil // item unmatched: no row
		}
		vals := make([]string, 0, len(nodes))
		for _, n := range nodes {
			if hasDirectValue(n.node) {
				vals = append(vals, nodeText(n.node))
			}
		}
		if len(vals) == 0 {
			return nil // no valued match: no row
		}
		matches[i] = vals
	}
	idx := make([]int, len(matches))
	for {
		row := make([]string, len(matches))
		for i := range matches {
			row[i] = matches[i][idx[i]]
		}
		key := strings.Join(row, "\x00")
		if !seen[key] {
			seen[key] = true
			res.Rows = append(res.Rows, row)
		}
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(matches[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return nil
		}
	}
}

// conjuncts flattens the AND tree.
func conjuncts(e xq.Expr) []xq.Expr {
	if e == nil {
		return nil
	}
	if a, ok := e.(*xq.And); ok {
		return append(conjuncts(a.L), conjuncts(a.R)...)
	}
	return []xq.Expr{e}
}

// exprVars lists the distinct variables an expression references.
func exprVars(e xq.Expr) []string {
	set := map[string]bool{}
	var walkPath func(p *xq.PathExpr)
	walkPath = func(p *xq.PathExpr) {
		if p == nil {
			return
		}
		if p.Var != "" {
			set[p.Var] = true
		}
	}
	var walk func(e xq.Expr)
	walk = func(e xq.Expr) {
		switch e := e.(type) {
		case *xq.Cmp:
			walkPath(e.Left)
			walkPath(e.Right)
		case *xq.Contains:
			walkPath(e.Target)
		case *xq.SeqContains:
			walkPath(e.Target)
		case *xq.Order:
			walkPath(e.Left)
			walkPath(e.Right)
		case *xq.And:
			walk(e.L)
			walk(e.R)
		case *xq.Or:
			walk(e.L)
			walk(e.R)
		case *xq.Not:
			walk(e.E)
		}
	}
	walk(e)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// bindCandidates evaluates a FOR binding's path over the corpus.
func (ev *evaluator) bindCandidates(p *xq.PathExpr, varIdx map[string]int, env map[string]binding) ([]binding, error) {
	if p.Var != "" {
		return nil, fmt.Errorf("FOR over another variable is not supported; use LET")
	}
	docs, ok := ev.corpus[p.Doc]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownDatabase, p.Doc)
	}
	var out []binding
	for _, d := range docs {
		nodes := ev.stepsFromRoot(d, p.Steps)
		for _, n := range nodes {
			out = append(out, binding{db: p.Doc, doc: d, node: n})
		}
	}
	return out, nil
}

// match holds a path evaluation result with its document (for order ops).
type match struct {
	doc  *xmldoc.Document
	node *xmldoc.Node
}

// evalPath evaluates a path expression in an environment.
func (ev *evaluator) evalPath(p *xq.PathExpr, env map[string]binding) ([]match, error) {
	if p.Var != "" {
		b, ok := env[p.Var]
		if !ok {
			return nil, fmt.Errorf("unbound variable $%s", p.Var)
		}
		nodes := ev.steps([]*xmldoc.Node{b.node}, p.Steps)
		out := make([]match, 0, len(nodes))
		for _, n := range nodes {
			out = append(out, match{doc: b.doc, node: n})
		}
		return out, nil
	}
	docs, ok := ev.corpus[p.Doc]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownDatabase, p.Doc)
	}
	var out []match
	for _, d := range docs {
		for _, n := range ev.stepsFromRoot(d, p.Steps) {
			out = append(out, match{doc: d, node: n})
		}
	}
	return out, nil
}

// stepsFromRoot applies steps starting above the document root (so the
// first child step matches the root element by name).
func (ev *evaluator) stepsFromRoot(d *xmldoc.Document, steps []xq.Step) []*xmldoc.Node {
	if len(steps) == 0 {
		return []*xmldoc.Node{d.Root}
	}
	first, rest := steps[0], steps[1:]
	var ctx []*xmldoc.Node
	switch first.Axis {
	case xq.Child:
		if !first.IsAttr && d.Root.Name == first.Name && ev.predsHold(d.Root, first.Preds) {
			ctx = []*xmldoc.Node{d.Root}
		}
	case xq.Descendant:
		if !first.IsAttr && d.Root.Name == first.Name && ev.predsHold(d.Root, first.Preds) {
			ctx = append(ctx, d.Root)
		}
		ctx = append(ctx, ev.steps([]*xmldoc.Node{d.Root}, []xq.Step{first})...)
	}
	if len(rest) == 0 {
		return ctx
	}
	return ev.steps(ctx, rest)
}

// steps applies location steps to a context node set.
func (ev *evaluator) steps(ctx []*xmldoc.Node, steps []xq.Step) []*xmldoc.Node {
	for _, s := range steps {
		var next []*xmldoc.Node
		for _, n := range ctx {
			next = append(next, ev.applyStep(n, s)...)
		}
		ctx = next
		if len(ctx) == 0 {
			return nil
		}
	}
	return ctx
}

func (ev *evaluator) applyStep(n *xmldoc.Node, s xq.Step) []*xmldoc.Node {
	var out []*xmldoc.Node
	add := func(m *xmldoc.Node) {
		if ev.predsHold(m, s.Preds) {
			out = append(out, m)
		}
	}
	if s.IsAttr {
		switch s.Axis {
		case xq.Child:
			for _, a := range n.Attrs {
				if a.Name == s.Name {
					add(a)
				}
			}
		case xq.Descendant:
			n.Descendants(func(m *xmldoc.Node) bool {
				if m.Kind == xmldoc.KindAttr && m.Name == s.Name {
					add(m)
				}
				return true
			})
		}
		return out
	}
	switch s.Axis {
	case xq.Child:
		for _, c := range n.ChildElements(s.Name) {
			add(c)
		}
	case xq.Descendant:
		for _, c := range n.DescendantElements(s.Name) {
			add(c)
		}
	}
	return out
}

// predsHold checks every predicate on a step's candidate node.
func (ev *evaluator) predsHold(n *xmldoc.Node, preds []xq.Pred) bool {
	for _, p := range preds {
		nodes := ev.steps([]*xmldoc.Node{n}, p.Path.Steps)
		ok := false
		for _, m := range nodes {
			if hasDirectValue(m) && compareLit(nodeText(m), p.Op, p.Lit, p.IsNum) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// hasDirectValue reports whether a node carries a comparable value: an
// attribute or text node always does; an element only when it has a
// direct text child. This mirrors the shredded values tables — an
// element without direct text has no values row, so it can satisfy no
// comparison and yields no return row.
func hasDirectValue(n *xmldoc.Node) bool {
	if n.Kind != xmldoc.KindElement {
		return true
	}
	for _, c := range n.Children {
		if c.Kind == xmldoc.KindText {
			return true
		}
	}
	return false
}

// nodeText is the comparison text of a node: an attribute's value, a
// text node's data, or — for elements — the concatenation of the
// element's DIRECT text children. This mirrors the shredded values
// tables, which hold one row per text node keyed by the parent element's
// path; subtree-wide matching is what contains() is for.
func nodeText(n *xmldoc.Node) string {
	if n.Kind != xmldoc.KindElement {
		return strings.TrimSpace(n.Data)
	}
	var sb strings.Builder
	for _, c := range n.Children {
		if c.Kind == xmldoc.KindText {
			sb.WriteString(c.Data)
		}
	}
	return strings.TrimSpace(sb.String())
}

// The comparison semantics shared with the XQ2SQL path: a numeric
// literal compares numerically and values that do not parse as numbers
// never match (they have no values_num row in the warehouse); everything
// else compares as strings.

// compareNumeric compares a value against a numeric literal.
func compareNumeric(val, op, lit string) bool {
	fv, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
	if err != nil {
		return false
	}
	fl, err := strconv.ParseFloat(strings.TrimSpace(lit), 64)
	if err != nil {
		return false
	}
	switch op {
	case "=":
		return fv == fl
	case "!=":
		return fv != fl
	case "<":
		return fv < fl
	case "<=":
		return fv <= fl
	case ">":
		return fv > fl
	case ">=":
		return fv >= fl
	}
	return false
}

// compareString compares two text values byte-wise.
func compareString(val, op, lit string) bool {
	switch op {
	case "=":
		return val == lit
	case "!=":
		return val != lit
	case "<":
		return val < lit
	case "<=":
		return val <= lit
	case ">":
		return val > lit
	case ">=":
		return val >= lit
	}
	return false
}

// compareLit dispatches on the literal's declared kind.
func compareLit(val, op, lit string, isNum bool) bool {
	if isNum {
		return compareNumeric(val, op, lit)
	}
	return compareString(val, op, lit)
}

// evalExpr evaluates a WHERE expression for one environment.
func (ev *evaluator) evalExpr(e xq.Expr, env map[string]binding) (bool, error) {
	switch e := e.(type) {
	case *xq.And:
		l, err := ev.evalExpr(e.L, env)
		if err != nil || !l {
			return false, err
		}
		return ev.evalExpr(e.R, env)
	case *xq.Or:
		l, err := ev.evalExpr(e.L, env)
		if err != nil {
			return false, err
		}
		if l {
			return true, nil
		}
		return ev.evalExpr(e.R, env)
	case *xq.Not:
		inner, err := ev.evalExpr(e.E, env)
		return !inner, err
	case *xq.Cmp:
		left, err := ev.evalPath(e.Left, env)
		if err != nil {
			return false, err
		}
		if e.Right == nil {
			for _, l := range left {
				if hasDirectValue(l.node) && compareLit(nodeText(l.node), e.Op, e.Lit, e.IsNum) {
					return true, nil
				}
			}
			return false, nil
		}
		right, err := ev.evalPath(e.Right, env)
		if err != nil {
			return false, err
		}
		for _, l := range left {
			if !hasDirectValue(l.node) {
				continue
			}
			for _, r := range right {
				if hasDirectValue(r.node) && compareString(nodeText(l.node), e.Op, nodeText(r.node)) {
					return true, nil
				}
			}
		}
		return false, nil
	case *xq.SeqContains:
		targets, err := ev.evalPath(e.Target, env)
		if err != nil {
			return false, err
		}
		motif := strings.ToLower(e.Motif)
		for _, t := range targets {
			found := false
			t.node.Descendants(func(m *xmldoc.Node) bool {
				if m.Kind == xmldoc.KindText &&
					strings.Contains(strings.ToLower(m.Data), motif) {
					found = true
					return false
				}
				return true
			})
			if found {
				return true, nil
			}
		}
		return false, nil
	case *xq.Contains:
		targets, err := ev.evalPath(e.Target, env)
		if err != nil {
			return false, err
		}
		// Keyword semantics match the warehouse tokenizer exactly (the
		// same predicate the inverted index and SQL KWCONTAINS apply):
		// every token of the keyword occurs as a token somewhere in the
		// target subtree.
		want := inverted.Tokenize(e.Keyword)
		if len(want) == 0 {
			return false, nil
		}
		for _, t := range targets {
			have := map[string]bool{}
			t.node.Descendants(func(m *xmldoc.Node) bool {
				if m.Kind == xmldoc.KindText || m.Kind == xmldoc.KindAttr {
					for _, tok := range inverted.Tokenize(m.Data) {
						have[tok] = true
					}
				}
				return true
			})
			ok := true
			for _, tok := range want {
				if !have[tok] {
					ok = false
					break
				}
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case *xq.Order:
		left, err := ev.evalPath(e.Left, env)
		if err != nil {
			return false, err
		}
		right, err := ev.evalPath(e.Right, env)
		if err != nil {
			return false, err
		}
		for _, l := range left {
			for _, r := range right {
				if l.doc != r.doc {
					continue
				}
				labels := ev.labels(l.doc)
				cmp := labels[l.node].Compare(labels[r.node])
				if e.Before && cmp < 0 {
					return true, nil
				}
				if !e.Before && cmp > 0 {
					return true, nil
				}
			}
		}
		return false, nil
	}
	return false, fmt.Errorf("nativexml: unsupported expression %T", e)
}

// labels lazily computes and caches Dewey labels for order comparisons.
func (ev *evaluator) labels(d *xmldoc.Document) map[*xmldoc.Node]xmldoc.Dewey {
	if l, ok := ev.orders[d]; ok {
		return l
	}
	l := d.AssignDeweys()
	ev.orders[d] = l
	return l
}
