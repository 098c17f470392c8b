// Package xq2sql implements the XQ2SQL-Transformer: it rewrites XomatiQ
// FLWR queries into SQL over the generic shredding schema (paper §3.2,
// "inspired by the recent research done in [32, 34, 40, 48]").
//
// Translation scheme (path-materialisation + structural joins):
//
//   - each FOR binding $v becomes an instance of the nodes table,
//     constrained to the binding path's dictionary ids;
//   - each WHERE condition on a path under $v becomes an instance of
//     values_str (or values_num for numeric comparisons), linked to the
//     binding by document id and the descendant test
//     x.node_id > b.node_id AND x.node_id <= b.last_desc (a pre-order
//     interval: the shredder numbers nodes in document order and keeps
//     each subtree's highest id in last_desc);
//   - contains() becomes KWCONTAINS over the value, optionally
//     pre-filtered through the inverted keyword index (doc_id IN ...);
//   - step predicates join a sibling (attribute) or child (element)
//     value instance through the shared parent node;
//   - BEFORE/AFTER compare node_id within one document;
//   - RETURN items join further value instances and project their val.
//
// The result is a single SELECT DISTINCT. Conditions are existential: a
// condition instance matching several values would copy its binding's
// row once per match, and DISTINCT drops the copies. The SQL layer joins
// an instance that nothing after it reads as a semi join, so it makes
// no copies; either way rows come back in the plan's stream order,
// first occurrences kept, and nothing re-sorts them. A few
// shapes have no single-SELECT equivalent — top-level NOT and
// disjunctions across different paths; Translate returns ErrUnsupported
// for those and the engine falls back to the native evaluator.
//
// A Translation is only valid for the dictionary it was produced from:
// the SQL embeds path ids and keyword-prefilter doc-id lists. Translate
// against the dictionary of the snapshot the SQL will read; the engine's
// plan cache keys translations by the dictionary versions of the
// databases they read (shred.Dict.DBVersion).
package xq2sql

import (
	"errors"
	"fmt"
	"strings"

	"xomatiq/internal/index/inverted"
	"xomatiq/internal/shred"
	"xomatiq/internal/xq"
)

// ErrUnsupported marks queries outside the translatable subset.
var ErrUnsupported = errors.New("xq2sql: query shape not translatable to a single SELECT")

// ErrUnknownDatabase marks a FOR/LET binding over a database the store
// does not know; the engine maps it to its public sentinel.
var ErrUnknownDatabase = errors.New("xq2sql: unknown database")

// Options tune the translation.
type Options struct {
	// UseKeywordIndex enables inverted-index doc prefilters for
	// contains() conditions; the engine always sets it.
	UseKeywordIndex bool
}

// Translation is the output of Translate.
type Translation struct {
	SQL     string
	Columns []string
}

// translator accumulates FROM entries and WHERE conjuncts. FROM entries
// are grouped into one segment per FOR binding (the binding's nodes
// instance followed by its condition instances) with return-item
// instances last, so the left-deep executor joins selectively before it
// crosses bindings or widens rows for output.
type translator struct {
	dict *shred.Dict
	opts Options

	fromSeg    [][]string // per-binding FROM segments
	fromReturn []string   // return-item instances, appended last
	where      []string
	selects    []string
	cols       []string
	nAlias     int

	bindings map[string]*bindingInfo
}

type bindingInfo struct {
	alias string // nodes-table alias
	db    string
	path  string // absolute path pattern of the binding
	seg   int    // FROM segment index
}

// Deprecated: Translate rewrites a query against the latest published
// dictionary, kept for the ledger; use TranslateDict with the dictionary
// of the snapshot the SQL will read.
func Translate(store *shred.Store, q *xq.Query, opts Options) (*Translation, error) {
	return TranslateDict(store.Dict(nil), q, opts)
}

// TranslateDict rewrites a query. The dictionary provides the path ids
// and keyword indexes of the referenced databases.
func TranslateDict(dict *shred.Dict, q *xq.Query, opts Options) (*Translation, error) {
	q, err := q.ResolveLets()
	if err != nil {
		return nil, err
	}
	tr := &translator{dict: dict, opts: opts, bindings: map[string]*bindingInfo{}}
	for _, b := range q.For {
		if err := tr.addBinding(b); err != nil {
			return nil, err
		}
	}
	for _, c := range conjuncts(q.Where) {
		if err := tr.addCondition(c); err != nil {
			return nil, err
		}
	}
	for _, r := range q.Return {
		if err := tr.addReturn(r); err != nil {
			return nil, err
		}
	}
	var from []string
	for _, seg := range tr.fromSeg {
		from = append(from, seg...)
	}
	from = append(from, tr.fromReturn...)
	sql := "SELECT DISTINCT " + strings.Join(tr.selects, ", ") +
		" FROM " + strings.Join(from, ", ")
	if len(tr.where) > 0 {
		sql += " WHERE " + strings.Join(tr.where, " AND ")
	}
	return &Translation{SQL: sql, Columns: tr.cols}, nil
}

func conjuncts(e xq.Expr) []xq.Expr {
	if e == nil {
		return nil
	}
	if a, ok := e.(*xq.And); ok {
		return append(conjuncts(a.L), conjuncts(a.R)...)
	}
	return []xq.Expr{e}
}

func (t *translator) alias(prefix string) string {
	t.nAlias++
	return fmt.Sprintf("%s%d", prefix, t.nAlias)
}

// pattern renders a path expression's steps as a dictionary pattern
// appended to base.
func pattern(base string, steps []xq.Step) (string, error) {
	var sb strings.Builder
	sb.WriteString(base)
	for _, s := range steps {
		if s.Axis == xq.Descendant {
			sb.WriteString("//")
		} else {
			sb.WriteString("/")
		}
		if s.IsAttr {
			sb.WriteString("@")
		}
		sb.WriteString(s.Name)
	}
	return sb.String(), nil
}

// lastPreds returns the predicates attached to the final step and fails
// on predicates attached to earlier steps (untranslatable without a
// general twig join).
func lastPreds(steps []xq.Step) ([]xq.Pred, error) {
	for i, s := range steps {
		if len(s.Preds) > 0 && i != len(steps)-1 {
			return nil, fmt.Errorf("%w: predicate on non-final step", ErrUnsupported)
		}
	}
	if len(steps) == 0 {
		return nil, nil
	}
	return steps[len(steps)-1].Preds, nil
}

func (t *translator) addBinding(b xq.Binding) error {
	if b.Path.Doc == "" {
		return fmt.Errorf("%w: FOR binding rooted at a variable", ErrUnsupported)
	}
	if !t.dict.HasDB(b.Path.Doc) {
		return fmt.Errorf("%w %q", ErrUnknownDatabase, b.Path.Doc)
	}
	if _, err := lastPreds(b.Path.Steps); err != nil {
		return err
	}
	if len(b.Path.Steps) > 0 && len(b.Path.Steps[len(b.Path.Steps)-1].Preds) > 0 {
		return fmt.Errorf("%w: predicate on FOR binding step", ErrUnsupported)
	}
	pat, err := pattern("", b.Path.Steps)
	if err != nil {
		return err
	}
	ids := t.dict.PathsMatching(b.Path.Doc, pat)
	alias := t.alias("b")
	seg := len(t.fromSeg)
	t.fromSeg = append(t.fromSeg, []string{"nodes " + alias})
	t.where = append(t.where,
		alias+".db = "+shred.Quote(b.Path.Doc),
		alias+".kind = 0",
		inList(alias+".path_id", ids))
	t.bindings[b.Var] = &bindingInfo{alias: alias, db: b.Path.Doc, path: pat, seg: seg}
	return nil
}

// inList renders "col = x" / "col IN (...)"; an empty id list yields a
// contradiction so the query returns no rows (the path does not exist).
func inList(col string, ids []int) string {
	switch len(ids) {
	case 0:
		return "1 = 0"
	case 1:
		return fmt.Sprintf("%s = %d", col, ids[0])
	default:
		parts := make([]string, len(ids))
		for i, id := range ids {
			parts[i] = fmt.Sprintf("%d", id)
		}
		return col + " IN (" + strings.Join(parts, ", ") + ")"
	}
}

// valueInstance joins a values-table instance for a path rooted at a
// binding, returning its alias. numeric selects values_num. forReturn
// defers the instance to the end of the FROM list.
func (t *translator) valueInstance(p *xq.PathExpr, numeric, under, forReturn bool) (string, error) {
	b := t.bindings[p.Var]
	if b == nil {
		return "", fmt.Errorf("%w: path rooted at document in condition", ErrUnsupported)
	}
	preds, err := lastPreds(p.Steps)
	if err != nil {
		return "", err
	}
	pat, err := pattern(b.path, p.Steps)
	if err != nil {
		return "", err
	}
	var ids []int
	if under {
		ids = t.dict.PathsUnder(b.db, pat)
	} else {
		ids = t.dict.PathsMatching(b.db, pat)
	}
	table := "values_str"
	prefix := "w"
	if numeric {
		table = "values_num"
		prefix = "n"
	}
	alias := t.alias(prefix)
	if forReturn {
		t.fromReturn = append(t.fromReturn, table+" "+alias)
	} else {
		t.fromSeg[b.seg] = append(t.fromSeg[b.seg], table+" "+alias)
	}
	t.where = append(t.where,
		alias+".db = "+shred.Quote(b.db),
		alias+".doc_id = "+b.alias+".doc_id",
		alias+".node_id > "+b.alias+".node_id",
		alias+".node_id <= "+b.alias+".last_desc",
		inList(alias+".path_id", ids))
	// Predicates on the final step: sibling attribute or child element
	// instances sharing structure with this value instance.
	for _, pr := range preds {
		if err := t.addPredicate(alias, b, pat, pr, forReturn); err != nil {
			return "", err
		}
	}
	return alias, nil
}

// addPredicate joins the value instance of a step predicate. For an
// attribute predicate the value row shares the element (parent_id); for
// a child-element predicate the child's text parent is joined through
// the nodes table.
func (t *translator) addPredicate(valAlias string, b *bindingInfo, stepPat string, pr xq.Pred, forReturn bool) error {
	addFrom := func(entries ...string) {
		if forReturn {
			t.fromReturn = append(t.fromReturn, entries...)
		} else {
			t.fromSeg[b.seg] = append(t.fromSeg[b.seg], entries...)
		}
	}
	table := "values_str"
	lit := shred.Quote(pr.Lit)
	if pr.IsNum {
		table = "values_num"
		lit = pr.Lit
	}
	steps := pr.Path.Steps
	if len(steps) == 1 && steps[0].IsAttr {
		pat := stepPat + "/@" + steps[0].Name
		ids := t.dict.PathsMatching(b.db, pat)
		p := t.alias("p")
		addFrom(table + " " + p)
		t.where = append(t.where,
			p+".db = "+shred.Quote(b.db),
			p+".doc_id = "+valAlias+".doc_id",
			p+".parent_id = "+valAlias+".parent_id",
			inList(p+".path_id", ids),
			fmt.Sprintf("%s.val %s %s", p, pr.Op, lit))
		return nil
	}
	if len(steps) == 1 && !steps[0].IsAttr {
		// Child element: its text rows hang one element deeper; link the
		// child element node to the step element (= valAlias.parent_id).
		pat, err := pattern(stepPat, steps)
		if err != nil {
			return err
		}
		ids := t.dict.PathsMatching(b.db, pat)
		p := t.alias("p")
		cn := t.alias("c")
		addFrom(table+" "+p, "nodes "+cn)
		t.where = append(t.where,
			p+".db = "+shred.Quote(b.db),
			p+".doc_id = "+valAlias+".doc_id",
			inList(p+".path_id", ids),
			cn+".db = "+shred.Quote(b.db),
			cn+".doc_id = "+p+".doc_id",
			cn+".node_id = "+p+".parent_id",
			cn+".parent_id = "+valAlias+".parent_id",
			fmt.Sprintf("%s.val %s %s", p, pr.Op, lit))
		return nil
	}
	return fmt.Errorf("%w: multi-step predicate path", ErrUnsupported)
}

func (t *translator) addCondition(e xq.Expr) error {
	switch e := e.(type) {
	case *xq.Cmp:
		return t.addCmp(e)
	case *xq.Contains:
		return t.addContains(e)
	case *xq.SeqContains:
		return t.addSeqContains(e)
	case *xq.Order:
		return t.addOrder(e)
	case *xq.Or:
		return t.addOr(e)
	case *xq.Not:
		return fmt.Errorf("%w: NOT requires anti-join", ErrUnsupported)
	case *xq.And:
		for _, c := range conjuncts(e) {
			if err := t.addCondition(c); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("%w: %T condition", ErrUnsupported, e)
}

func (t *translator) addCmp(e *xq.Cmp) error {
	numeric := e.Right == nil && e.IsNum
	left, err := t.valueInstance(e.Left, numeric, false, false)
	if err != nil {
		return err
	}
	if e.Right == nil {
		lit := shred.Quote(e.Lit)
		if numeric {
			lit = e.Lit
		}
		t.where = append(t.where, fmt.Sprintf("%s.val %s %s", left, e.Op, lit))
		return nil
	}
	right, err := t.valueInstance(e.Right, false, false, false)
	if err != nil {
		return err
	}
	t.where = append(t.where, fmt.Sprintf("%s.val %s %s.val", left, e.Op, right))
	return nil
}

func (t *translator) addContains(e *xq.Contains) error {
	b := t.bindings[e.Target.Var]
	if b == nil {
		return fmt.Errorf("%w: contains() on document-rooted path", ErrUnsupported)
	}
	alias, err := t.valueInstance(e.Target, false, true, false)
	if err != nil {
		return err
	}
	t.where = append(t.where,
		fmt.Sprintf("KWCONTAINS(%s.val, %s)", alias, shred.Quote(e.Keyword)))
	if t.opts.UseKeywordIndex {
		// The prefilter narrows both the binding and the value instance:
		// constraining the value alias lets the executor skip the (much
		// more expensive) KWCONTAINS tokenisation for every row of a
		// non-candidate document.
		t.addKeywordPrefilter(b.alias, b.db, e.Keyword)
		t.addKeywordPrefilter(alias, b.db, e.Keyword)
	}
	return nil
}

// addSeqContains joins a seq_data instance for a motif search: substring
// matching over sequence residues, which live apart from annotation text
// (paper §2.2's sequence/non-sequence split). The target path must reach
// sequence elements; non-sequence targets match nothing (their text is
// in values_str).
func (t *translator) addSeqContains(e *xq.SeqContains) error {
	b := t.bindings[e.Target.Var]
	if b == nil {
		return fmt.Errorf("%w: seqcontains() on document-rooted path", ErrUnsupported)
	}
	if _, err := lastPreds(e.Target.Steps); err != nil {
		return err
	}
	if n := len(e.Target.Steps); n > 0 && len(e.Target.Steps[n-1].Preds) > 0 {
		return fmt.Errorf("%w: predicate in seqcontains() target", ErrUnsupported)
	}
	pat, err := pattern(b.path, e.Target.Steps)
	if err != nil {
		return err
	}
	ids := t.dict.PathsUnder(b.db, pat)
	alias := t.alias("s")
	t.fromSeg[b.seg] = append(t.fromSeg[b.seg], "seq_data "+alias)
	t.where = append(t.where,
		alias+".db = "+shred.Quote(b.db),
		alias+".doc_id = "+b.alias+".doc_id",
		alias+".node_id > "+b.alias+".node_id",
		alias+".node_id <= "+b.alias+".last_desc",
		inList(alias+".path_id", ids),
		fmt.Sprintf("CONTAINS(%s.seq, %s)", alias, shred.Quote(e.Motif)))
	return nil
}

// addKeywordPrefilter narrows an alias to the documents the inverted
// index knows to mention every keyword token.
func (t *translator) addKeywordPrefilter(alias, db, keyword string) {
	ix := t.dict.Keywords(db)
	if ix == nil {
		return
	}
	toks := inverted.Tokenize(keyword)
	if len(toks) == 0 {
		return
	}
	docSet := map[uint32]int{}
	for _, tok := range toks {
		for _, d := range ix.LookupDocs(tok) {
			docSet[d]++
		}
	}
	var ids []int
	for d, n := range docSet {
		if n == len(toks) {
			ids = append(ids, int(d))
		}
	}
	t.where = append(t.where, inList(alias+".doc_id", ids))
}

func (t *translator) addOrder(e *xq.Order) error {
	left, err := t.nodeInstance(e.Left)
	if err != nil {
		return err
	}
	right, err := t.nodeInstance(e.Right)
	if err != nil {
		return err
	}
	op := ">"
	if e.Before {
		op = "<"
	}
	t.where = append(t.where,
		left+".doc_id = "+right+".doc_id",
		fmt.Sprintf("%s.node_id %s %s.node_id", left, op, right))
	return nil
}

// nodeInstance joins a nodes-table instance for order comparisons.
func (t *translator) nodeInstance(p *xq.PathExpr) (string, error) {
	b := t.bindings[p.Var]
	if b == nil {
		return "", fmt.Errorf("%w: order operand rooted at document", ErrUnsupported)
	}
	if _, err := lastPreds(p.Steps); err != nil {
		return "", err
	}
	if len(p.Steps) > 0 && len(p.Steps[len(p.Steps)-1].Preds) > 0 {
		return "", fmt.Errorf("%w: predicate in order operand", ErrUnsupported)
	}
	pat, err := pattern(b.path, p.Steps)
	if err != nil {
		return "", err
	}
	ids := t.dict.PathsMatching(b.db, pat)
	alias := t.alias("o")
	t.fromSeg[b.seg] = append(t.fromSeg[b.seg], "nodes "+alias)
	// Match the node kind of the path's final step: text children share
	// their parent element's dictionary path and must not act as extra
	// order witnesses for element paths.
	kind := "0"
	if n := len(p.Steps); n > 0 && p.Steps[n-1].IsAttr {
		kind = "1"
	}
	t.where = append(t.where,
		alias+".db = "+shred.Quote(b.db),
		alias+".kind = "+kind,
		alias+".doc_id = "+b.alias+".doc_id",
		alias+".node_id > "+b.alias+".node_id",
		alias+".node_id <= "+b.alias+".last_desc",
		inList(alias+".path_id", ids))
	return alias, nil
}

// addOr merges a disjunction whose branches all constrain the same path
// with the same shape (the common "k1 or k2" keyword form). exists w:
// (c1(w) OR c2(w)) equals (exists w: c1) OR (exists w: c2) over the same
// row domain, so one instance with an OR'd predicate is exact.
func (t *translator) addOr(e *xq.Or) error {
	branches := disjuncts(e)
	// All branches must be contains() or literal comparisons over one
	// identical target path.
	var target string
	for _, br := range branches {
		var p *xq.PathExpr
		switch br := br.(type) {
		case *xq.Contains:
			p = br.Target
		case *xq.Cmp:
			if br.Right != nil {
				return fmt.Errorf("%w: OR over path-to-path comparison", ErrUnsupported)
			}
			p = br.Left
		default:
			return fmt.Errorf("%w: OR over %T", ErrUnsupported, br)
		}
		if target == "" {
			target = p.String()
		} else if p.String() != target {
			return fmt.Errorf("%w: OR branches constrain different paths", ErrUnsupported)
		}
	}
	// One shared instance; branch predicates OR'd. Subtree (under)
	// resolution when any branch is contains().
	under := false
	for _, br := range branches {
		if _, ok := br.(*xq.Contains); ok {
			under = true
		}
	}
	var pathExpr *xq.PathExpr
	switch br := branches[0].(type) {
	case *xq.Contains:
		pathExpr = br.Target
	case *xq.Cmp:
		pathExpr = br.Left
	}
	alias, err := t.valueInstance(pathExpr, false, under, false)
	if err != nil {
		return err
	}
	var parts []string
	for _, br := range branches {
		switch br := br.(type) {
		case *xq.Contains:
			parts = append(parts, fmt.Sprintf("KWCONTAINS(%s.val, %s)", alias, shred.Quote(br.Keyword)))
		case *xq.Cmp:
			lit := shred.Quote(br.Lit)
			parts = append(parts, fmt.Sprintf("%s.val %s %s", alias, br.Op, lit))
		}
	}
	t.where = append(t.where, "("+strings.Join(parts, " OR ")+")")
	return nil
}

func disjuncts(e xq.Expr) []xq.Expr {
	if o, ok := e.(*xq.Or); ok {
		return append(disjuncts(o.L), disjuncts(o.R)...)
	}
	return []xq.Expr{e}
}

func (t *translator) addReturn(r xq.ReturnItem) error {
	alias, err := t.valueInstance(r.Path, false, false, true)
	if err != nil {
		return err
	}
	col := sanitizeAlias(r.Name())
	t.selects = append(t.selects, alias+".val AS "+col)
	t.cols = append(t.cols, col)
	return nil
}

func sanitizeAlias(s string) string {
	var sb strings.Builder
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	out := sb.String()
	if out == "" {
		return "value"
	}
	return out
}
