// Package xq implements the XomatiQ query language: the FLWR
// (for-let-where-return) subset of the June-2001 XQuery working draft
// that the paper adopts, extended with the contains() keyword predicate
// ("simple keyword-based queries, similar to those found in web-based
// search engines") and the BEFORE/AFTER document-order operators its
// shredding schema exists to support.
//
// The three query figures of the paper parse verbatim (modulo the
// underscore normalisation of element names):
//
//	FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
//	    $b IN document("hlx_sprot.all")/hlx_n_sequence
//	WHERE contains($a, "cdc6", any) AND contains($b, "cdc6", any)
//	RETURN $b//sprot_accession_number, $a//embl_accession_number
package xq

import (
	"fmt"
	"slices"
	"strings"
)

// Query is one parsed FLWR query.
type Query struct {
	For    []Binding // iteration bindings, in order
	Let    []Binding // alias bindings
	Where  Expr      // nil when absent
	Return []ReturnItem
}

// Binding binds a variable to a path expression.
type Binding struct {
	Var  string // without '$'
	Path *PathExpr
}

// ReturnItem is one output column.
type ReturnItem struct {
	Alias string // optional "$Alias =" name; defaults from the path
	Path  *PathExpr
}

// Name returns the output column label.
func (r ReturnItem) Name() string {
	if r.Alias != "" {
		return r.Alias
	}
	if n := len(r.Path.Steps); n > 0 {
		return r.Path.Steps[n-1].Name
	}
	if r.Path.Var != "" {
		return r.Path.Var
	}
	return "value"
}

// PathExpr is a rooted path: document("db")/step... or $var/step...
type PathExpr struct {
	Doc   string // document("...") root; empty when rooted at Var
	Var   string // variable root; empty when rooted at Doc
	Steps []Step
}

// Axis distinguishes / from //.
type Axis uint8

// Axes.
const (
	Child Axis = iota
	Descendant
)

// Step is one location step.
type Step struct {
	Axis   Axis
	Name   string // element or attribute name
	IsAttr bool   // @name
	Preds  []Pred
}

// Pred is a step predicate: [relpath op literal] where relpath is a
// child/attribute path relative to the step.
type Pred struct {
	Path  *PathExpr // relative path (Doc and Var empty)
	Op    string    // = != < <= > >=
	Lit   string
	IsNum bool // literal was numeric: numeric comparison semantics
}

// String renders the path in query syntax.
func (p *PathExpr) String() string {
	var sb strings.Builder
	switch {
	case p.Doc != "":
		sb.WriteString(`document("` + p.Doc + `")`)
	case p.Var != "":
		sb.WriteString("$" + p.Var)
	}
	rootless := p.Doc == "" && p.Var == ""
	for i, s := range p.Steps {
		switch {
		case s.Axis == Descendant:
			sb.WriteString("//")
		case rootless && i == 0:
			// Relative predicate paths render without a leading slash.
		default:
			sb.WriteString("/")
		}
		if s.IsAttr {
			sb.WriteString("@")
		}
		sb.WriteString(s.Name)
		for _, pr := range s.Preds {
			lit := quoteLit(pr.Lit)
			if pr.IsNum {
				lit = pr.Lit
			}
			sb.WriteString("[" + pr.Path.String() + " " + pr.Op + " " + lit + "]")
		}
	}
	return sb.String()
}

func quoteLit(s string) string { return `"` + s + `"` }

// Expr is a WHERE-clause expression.
type Expr interface{ xqExpr() }

// Cmp compares a path's values with a literal or another path's values
// (existential semantics: true when any pair satisfies the operator).
type Cmp struct {
	Left  *PathExpr
	Op    string // = != < <= > >=
	Lit   string // literal form when RightPath is nil
	IsNum bool   // literal looked numeric
	Right *PathExpr
}

// Contains is the keyword extension: contains(path, "kw" [, any]).
// With Any (or a bare variable), the keyword may occur anywhere in the
// bound subtree; otherwise it must occur in the text of a matched node.
type Contains struct {
	Target  *PathExpr
	Keyword string
	Any     bool
}

// SeqContains is the sequence-search extension: seqcontains(path,
// "ACGT"). It matches residue substrings (case-insensitive) against the
// warehouse's sequence data — the paper's rationale for splitting
// sequence from non-sequence storage is that "types of queries posed on
// DNA or protein sequences are generally different from those posed on
// non-sequence data": motif search is substring search over seq_data,
// never keyword search.
type SeqContains struct {
	Target *PathExpr
	Motif  string
}

// Order is a BEFORE/AFTER document-order comparison.
type Order struct {
	Left   *PathExpr
	Before bool // true: BEFORE; false: AFTER
	Right  *PathExpr
}

// And, Or, Not combine conditions.
type And struct{ L, R Expr }

// Or is a disjunction.
type Or struct{ L, R Expr }

// Not negates a condition.
type Not struct{ E Expr }

func (*Cmp) xqExpr()         {}
func (*Contains) xqExpr()    {}
func (*SeqContains) xqExpr() {}
func (*Order) xqExpr()       {}
func (*And) xqExpr()         {}
func (*Or) xqExpr()          {}
func (*Not) xqExpr()         {}

// ExprString renders a WHERE expression in query syntax.
func ExprString(e Expr) string {
	switch e := e.(type) {
	case *Cmp:
		rhs := quoteLit(e.Lit)
		if e.Right != nil {
			rhs = e.Right.String()
		} else if e.IsNum {
			rhs = e.Lit
		}
		return e.Left.String() + " " + e.Op + " " + rhs
	case *Contains:
		anyArg := ""
		if e.Any {
			anyArg = ", any"
		}
		return "contains(" + e.Target.String() + ", " + quoteLit(e.Keyword) + anyArg + ")"
	case *SeqContains:
		return "seqcontains(" + e.Target.String() + ", " + quoteLit(e.Motif) + ")"
	case *Order:
		op := "AFTER"
		if e.Before {
			op = "BEFORE"
		}
		return e.Left.String() + " " + op + " " + e.Right.String()
	case *And:
		return "(" + ExprString(e.L) + " AND " + ExprString(e.R) + ")"
	case *Or:
		return "(" + ExprString(e.L) + " OR " + ExprString(e.R) + ")"
	case *Not:
		return "NOT (" + ExprString(e.E) + ")"
	}
	return "?"
}

// Validate checks variable references: every path rooted at a variable
// must reference a FOR or LET binding defined earlier, and binding names
// must be unique.
func (q *Query) Validate() error {
	if len(q.For) == 0 {
		return fmt.Errorf("xq: query has no FOR bindings")
	}
	if len(q.Return) == 0 {
		return fmt.Errorf("xq: query has no RETURN items")
	}
	defined := map[string]bool{}
	checkPath := func(p *PathExpr, where string) error {
		if p.Var != "" && !defined[p.Var] {
			return fmt.Errorf("xq: %s references undefined variable $%s", where, p.Var)
		}
		return nil
	}
	for _, b := range append(append([]Binding{}, q.For...), q.Let...) {
		if err := checkPath(b.Path, "binding $"+b.Var); err != nil {
			return err
		}
		if defined[b.Var] {
			return fmt.Errorf("xq: duplicate binding $%s", b.Var)
		}
		if b.Path.Doc == "" && b.Path.Var == "" {
			return fmt.Errorf("xq: binding $%s has no document() or variable root", b.Var)
		}
		defined[b.Var] = true
	}
	var checkExpr func(e Expr) error
	checkExpr = func(e Expr) error {
		switch e := e.(type) {
		case nil:
			return nil
		case *Cmp:
			if err := checkPath(e.Left, "comparison"); err != nil {
				return err
			}
			if e.Right != nil {
				return checkPath(e.Right, "comparison")
			}
			return nil
		case *Contains:
			return checkPath(e.Target, "contains()")
		case *SeqContains:
			return checkPath(e.Target, "seqcontains()")
		case *Order:
			if err := checkPath(e.Left, "order comparison"); err != nil {
				return err
			}
			return checkPath(e.Right, "order comparison")
		case *And:
			if err := checkExpr(e.L); err != nil {
				return err
			}
			return checkExpr(e.R)
		case *Or:
			if err := checkExpr(e.L); err != nil {
				return err
			}
			return checkExpr(e.R)
		case *Not:
			return checkExpr(e.E)
		}
		return fmt.Errorf("xq: unknown expression %T", e)
	}
	if err := checkExpr(q.Where); err != nil {
		return err
	}
	for _, r := range q.Return {
		if err := checkPath(r.Path, "return item"); err != nil {
			return err
		}
		if r.Path.Var == "" && r.Path.Doc == "" {
			return fmt.Errorf("xq: return item has no root")
		}
	}
	return nil
}

// String renders the query in canonical text form (the "Translate Query"
// button of the visual interface).
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("FOR ")
	for i, b := range q.For {
		if i > 0 {
			sb.WriteString(",\n    ")
		}
		sb.WriteString("$" + b.Var + " IN " + b.Path.String())
	}
	for _, b := range q.Let {
		sb.WriteString("\nLET $" + b.Var + " := " + b.Path.String())
	}
	if q.Where != nil {
		sb.WriteString("\nWHERE " + ExprString(q.Where))
	}
	sb.WriteString("\nRETURN ")
	for i, r := range q.Return {
		if i > 0 {
			sb.WriteString(",\n       ")
		}
		if r.Alias != "" {
			sb.WriteString("$" + r.Alias + " = ")
		}
		sb.WriteString(r.Path.String())
	}
	return sb.String()
}

// ResolveLets substitutes LET bindings into all paths, yielding a query
// whose paths root only at FOR variables or documents.
func (q *Query) ResolveLets() (*Query, error) {
	lets := map[string]*PathExpr{}
	for _, b := range q.Let {
		p, err := substitute(b.Path, lets)
		if err != nil {
			return nil, err
		}
		lets[b.Var] = p
	}
	out := &Query{For: make([]Binding, len(q.For)), Return: make([]ReturnItem, len(q.Return))}
	for i, b := range q.For {
		p, err := substitute(b.Path, lets)
		if err != nil {
			return nil, err
		}
		out.For[i] = Binding{Var: b.Var, Path: p}
	}
	var substExpr func(e Expr) (Expr, error)
	substExpr = func(e Expr) (Expr, error) {
		switch e := e.(type) {
		case nil:
			return nil, nil
		case *Cmp:
			l, err := substitute(e.Left, lets)
			if err != nil {
				return nil, err
			}
			var r *PathExpr
			if e.Right != nil {
				if r, err = substitute(e.Right, lets); err != nil {
					return nil, err
				}
			}
			return &Cmp{Left: l, Op: e.Op, Lit: e.Lit, IsNum: e.IsNum, Right: r}, nil
		case *Contains:
			tgt, err := substitute(e.Target, lets)
			if err != nil {
				return nil, err
			}
			return &Contains{Target: tgt, Keyword: e.Keyword, Any: e.Any}, nil
		case *SeqContains:
			tgt, err := substitute(e.Target, lets)
			if err != nil {
				return nil, err
			}
			return &SeqContains{Target: tgt, Motif: e.Motif}, nil
		case *Order:
			l, err := substitute(e.Left, lets)
			if err != nil {
				return nil, err
			}
			r, err := substitute(e.Right, lets)
			if err != nil {
				return nil, err
			}
			return &Order{Left: l, Before: e.Before, Right: r}, nil
		case *And:
			l, err := substExpr(e.L)
			if err != nil {
				return nil, err
			}
			r, err := substExpr(e.R)
			if err != nil {
				return nil, err
			}
			return &And{L: l, R: r}, nil
		case *Or:
			l, err := substExpr(e.L)
			if err != nil {
				return nil, err
			}
			r, err := substExpr(e.R)
			if err != nil {
				return nil, err
			}
			return &Or{L: l, R: r}, nil
		case *Not:
			inner, err := substExpr(e.E)
			if err != nil {
				return nil, err
			}
			return &Not{E: inner}, nil
		}
		return nil, fmt.Errorf("xq: unknown expression %T", e)
	}
	w, err := substExpr(q.Where)
	if err != nil {
		return nil, err
	}
	out.Where = w
	for i, r := range q.Return {
		p, err := substitute(r.Path, lets)
		if err != nil {
			return nil, err
		}
		out.Return[i] = ReturnItem{Alias: r.Alias, Path: p}
	}
	return out, nil
}

// Databases lists the databases the query names through document(), in
// order of first appearance: bindings, then the WHERE clause, then the
// return items.
func (q *Query) Databases() []string {
	var out []string
	add := func(p *PathExpr) {
		if p != nil && p.Doc != "" && !slices.Contains(out, p.Doc) {
			out = append(out, p.Doc)
		}
	}
	for _, b := range slices.Concat(q.For, q.Let) {
		add(b.Path)
	}
	var walk func(e Expr)
	walk = func(e Expr) {
		switch e := e.(type) {
		case *Cmp:
			add(e.Left)
			add(e.Right)
		case *Contains:
			add(e.Target)
		case *SeqContains:
			add(e.Target)
		case *Order:
			add(e.Left)
			add(e.Right)
		case *And:
			walk(e.L)
			walk(e.R)
		case *Or:
			walk(e.L)
			walk(e.R)
		case *Not:
			walk(e.E)
		}
	}
	walk(q.Where)
	for _, r := range q.Return {
		add(r.Path)
	}
	return out
}

func substitute(p *PathExpr, lets map[string]*PathExpr) (*PathExpr, error) {
	steps := make([]Step, len(p.Steps))
	for i, s := range p.Steps {
		ns := s
		ns.Preds = make([]Pred, len(s.Preds))
		for j, pr := range s.Preds {
			sub, err := substitute(pr.Path, lets)
			if err != nil {
				return nil, err
			}
			ns.Preds[j] = Pred{Path: sub, Op: pr.Op, Lit: pr.Lit, IsNum: pr.IsNum}
		}
		steps[i] = ns
	}
	if p.Var != "" {
		if base, ok := lets[p.Var]; ok {
			merged := &PathExpr{Doc: base.Doc, Var: base.Var}
			merged.Steps = append(append([]Step{}, base.Steps...), steps...)
			return merged, nil
		}
	}
	return &PathExpr{Doc: p.Doc, Var: p.Var, Steps: steps}, nil
}
