package sql

import (
	"fmt"
	"strings"

	"xomatiq/internal/index/inverted"
	"xomatiq/internal/value"
)

// Row pairs a tuple with the schema describing its columns.
type Row struct {
	Schema *Schema
	Values value.Tuple
}

// Schema names the columns of a row stream. Columns carry an optional
// table qualifier so joins can disambiguate.
type Schema struct {
	Cols []SchemaCol
}

// SchemaCol is one column of a schema.
type SchemaCol struct {
	Table string // binding name (alias or table), may be empty
	Name  string
	Type  value.Kind
}

// Find resolves a column reference to its position. Ambiguous or missing
// references return an error.
func (s *Schema) Find(ref *ColumnRef) (int, error) {
	found := -1
	for i, c := range s.Cols {
		if !strings.EqualFold(c.Name, ref.Column) {
			continue
		}
		if ref.Table != "" && !strings.EqualFold(c.Table, ref.Table) {
			continue
		}
		if found != -1 {
			return 0, fmt.Errorf("sql: ambiguous column %q", ref.String())
		}
		found = i
	}
	if found == -1 {
		return 0, fmt.Errorf("sql: unknown column %q", ref.String())
	}
	return found, nil
}

// Concat returns a schema with s's columns followed by o's.
func (s *Schema) Concat(o *Schema) *Schema {
	out := &Schema{Cols: make([]SchemaCol, 0, len(s.Cols)+len(o.Cols))}
	out.Cols = append(out.Cols, s.Cols...)
	out.Cols = append(out.Cols, o.Cols...)
	return out
}

// Eval evaluates e against row. Predicates use SQL three-valued logic:
// a comparison, LIKE, IN or keyword test with a NULL operand is NULL,
// NOT NULL is NULL, and AND/OR are NULL unless the other side decides
// them. A filter keeps only TRUE rows (truthy), so a NULL result drops
// the row with or without a NOT around it. Comparisons order values by
// value.Compare, the rule the indexes, join keys, IN lists and sort use,
// so a predicate means the same under every plan: TEXT never equals a
// number, and numbers compare with each other whatever their kind.
func Eval(e Expr, row Row) (value.Value, error) {
	switch e := e.(type) {
	case *Literal:
		return e.Val, nil
	case *ColumnRef:
		if r := e.resolved.Load(); r != nil && r.schema == row.Schema {
			return row.Values[r.idx], nil
		}
		i, err := row.Schema.Find(e)
		if err != nil {
			return value.Null, err
		}
		e.resolved.Store(&colResolution{schema: row.Schema, idx: i})
		return row.Values[i], nil
	case *BinaryExpr:
		return evalBinary(e, row)
	case *NotExpr:
		v, err := Eval(e.Expr, row)
		if err != nil {
			return value.Null, err
		}
		if v.IsNull() {
			return value.Null, nil
		}
		return value.NewBool(!truthy(v)), nil
	case *LikeExpr:
		v, err := Eval(e.Expr, row)
		if err != nil {
			return value.Null, err
		}
		pat, err := Eval(e.Pattern, row)
		if err != nil {
			return value.Null, err
		}
		if v.IsNull() || pat.IsNull() {
			return value.Null, nil
		}
		m := likeMatch(asText(v), asText(pat))
		if e.Not {
			m = !m
		}
		return value.NewBool(m), nil
	case *InExpr:
		v, err := Eval(e.Expr, row)
		if err != nil {
			return value.Null, err
		}
		if v.IsNull() {
			return value.Null, nil
		}
		litSet := e.litSet.Load()
		if litSet == nil && allLiterals(e.List) {
			// A NULL literal enters the set under nullKey, which no
			// non-NULL value encodes to.
			set := make(map[string]bool, len(e.List))
			for _, le := range e.List {
				set[string(le.(*Literal).Val.EncodeKey(nil))] = true
			}
			e.litSet.Store(&set)
			litSet = &set
		}
		found, sawNull := false, false
		if litSet != nil {
			found = (*litSet)[string(v.EncodeKey(nil))]
			sawNull = !found && (*litSet)[nullKey]
		} else {
			for _, le := range e.List {
				lv, err := Eval(le, row)
				if err != nil {
					return value.Null, err
				}
				if lv.IsNull() {
					sawNull = true
				} else if value.Compare(v, lv) == 0 {
					found = true
					break
				}
			}
		}
		if !found && sawNull {
			// x IN (…, NULL) is NULL, not false, when nothing else matched.
			return value.Null, nil
		}
		if e.Not {
			found = !found
		}
		return value.NewBool(found), nil
	case *FuncCall:
		if e.IsAggregate() {
			return value.Null, fmt.Errorf("sql: aggregate %s outside aggregation context", e.Name)
		}
		return evalScalarFunc(e, row)
	}
	return value.Null, fmt.Errorf("sql: cannot evaluate %T", e)
}

// nullKey is the EncodeKey form of NULL: an IN list's literal set holds
// a NULL literal under it.
var nullKey = string(value.Null.EncodeKey(nil))

func evalBinary(e *BinaryExpr, row Row) (value.Value, error) {
	// Short-circuit logical operators.
	switch e.Op {
	case OpAnd, OpOr:
		// The side equal to decides the result (FALSE for AND, TRUE for
		// OR); otherwise a NULL side makes it NULL.
		decides := e.Op == OpOr
		l, err := Eval(e.Left, row)
		if err != nil {
			return value.Null, err
		}
		if !l.IsNull() && truthy(l) == decides {
			return value.NewBool(decides), nil
		}
		r, err := Eval(e.Right, row)
		if err != nil {
			return value.Null, err
		}
		if !r.IsNull() && truthy(r) == decides {
			return value.NewBool(decides), nil
		}
		if l.IsNull() || r.IsNull() {
			return value.Null, nil
		}
		return value.NewBool(!decides), nil
	}
	l, err := Eval(e.Left, row)
	if err != nil {
		return value.Null, err
	}
	r, err := Eval(e.Right, row)
	if err != nil {
		return value.Null, err
	}
	switch e.Op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		if l.IsNull() || r.IsNull() {
			return value.Null, nil
		}
		c := value.Compare(l, r)
		var out bool
		switch e.Op {
		case OpEq:
			out = c == 0
		case OpNe:
			out = c != 0
		case OpLt:
			out = c < 0
		case OpLe:
			out = c <= 0
		case OpGt:
			out = c > 0
		case OpGe:
			out = c >= 0
		}
		return value.NewBool(out), nil
	case OpCat:
		if l.IsNull() || r.IsNull() {
			return value.Null, nil
		}
		return value.NewText(asText(l) + asText(r)), nil
	}
	return value.Null, fmt.Errorf("sql: unknown operator %q", e.Op)
}

func evalScalarFunc(e *FuncCall, row Row) (value.Value, error) {
	args := make([]value.Value, len(e.Args))
	for i, a := range e.Args {
		v, err := Eval(a, row)
		if err != nil {
			return value.Null, err
		}
		args[i] = v
	}
	switch e.Name {
	case "CONTAINS":
		// Substring containment (case-insensitive).
		if args[0].IsNull() || args[1].IsNull() {
			return value.Null, nil
		}
		hay := strings.ToLower(asText(args[0]))
		needle := strings.ToLower(asText(args[1]))
		return value.NewBool(strings.Contains(hay, needle)), nil
	case "KWCONTAINS":
		// Keyword containment with the warehouse tokenizer: every token
		// of the keyword must occur as a token of the text. This is the
		// SQL realisation of the XomatiQ contains() extension, and it is
		// exactly the predicate the inverted keyword index accelerates.
		if args[0].IsNull() || args[1].IsNull() {
			return value.Null, nil
		}
		have := map[string]bool{}
		for _, tok := range inverted.Tokenize(asText(args[0])) {
			have[tok] = true
		}
		want := inverted.Tokenize(asText(args[1]))
		if len(want) == 0 {
			return value.NewBool(false), nil
		}
		for _, tok := range want {
			if !have[tok] {
				return value.NewBool(false), nil
			}
		}
		return value.NewBool(true), nil
	}
	return value.Null, fmt.Errorf("sql: unknown function %q", e.Name)
}

// allLiterals reports whether every expression is a literal constant.
func allLiterals(list []Expr) bool {
	for _, e := range list {
		if _, ok := e.(*Literal); !ok {
			return false
		}
	}
	return true
}

// truthy collapses SQL booleans: TRUE is true, everything else (FALSE,
// NULL, non-boolean) is false except nonzero numerics.
func truthy(v value.Value) bool {
	switch v.Kind() {
	case value.KindBool:
		return v.Bool()
	case value.KindInt:
		return v.Int() != 0
	case value.KindFloat:
		return v.Float() != 0
	}
	return false
}

// asText renders any non-null value as a string for text operations.
func asText(v value.Value) string {
	if v.Kind() == value.KindText {
		return v.Text()
	}
	return v.String()
}

// likeMatch implements SQL LIKE: % matches any run, _ any single byte.
func likeMatch(s, pat string) bool {
	// Dynamic programming over positions, iterative two-pointer with
	// backtracking on the last %.
	si, pi := 0, 0
	star, sBack := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]):
			si++
			pi++
		case pi < len(pat) && pat[pi] == '%':
			star = pi
			sBack = si
			pi++
		case star != -1:
			sBack++
			si = sBack
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}
