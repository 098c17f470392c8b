// Package sql implements the relational query processor that plays the
// role Oracle 9i played in the paper: a SQL subset with a catalog,
// cost-aware index selection, and an iterator-model executor, running on
// the heap/B+tree storage engine. XomatiQ's XQ2SQL transformer emits
// queries in this dialect.
package sql

import (
	"strings"
	"sync/atomic"

	"xomatiq/internal/value"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// CreateTable defines a new table.
type CreateTable struct {
	Name        string
	Columns     []ColumnDef
	IfNotExists bool
}

// ColumnDef is one column in a CREATE TABLE.
type ColumnDef struct {
	Name string
	Type value.Kind
}

// CreateIndex defines a secondary B-tree index.
type CreateIndex struct {
	Name        string
	Table       string
	Columns     []string
	IfNotExists bool
}

// DropTable removes a table and its indexes.
type DropTable struct {
	Name     string
	IfExists bool
}

// DropIndex removes an index.
type DropIndex struct {
	Name     string
	IfExists bool
}

// Insert adds rows to a table.
type Insert struct {
	Table   string
	Columns []string // nil means table order
	Rows    [][]Expr
}

// Delete removes rows matching Where (all rows when nil).
type Delete struct {
	Table string
	Where Expr
}

// Select is a query. Its FROM list is a comma join: every join
// condition is a WHERE conjunct.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
}

// SelectItem is one output expression; Star marks "*".
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

// Binding returns the name the table is referenced by in expressions.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

func (*CreateTable) stmt() {}
func (*CreateIndex) stmt() {}
func (*DropTable) stmt()   {}
func (*DropIndex) stmt()   {}
func (*Insert) stmt()      {}
func (*Delete) stmt()      {}
func (*Select) stmt()      {}

// Expr is any expression node.
type Expr interface{ expr() }

// Literal is a constant value.
type Literal struct {
	Val value.Value
}

// ColumnRef names a column, optionally qualified by table or alias.
type ColumnRef struct {
	Table  string // may be empty
	Column string

	// resolved memoises resolution against the last schema this
	// reference was evaluated under. Parsed statements may be shared
	// across concurrent executions (the engine's plan cache), so the
	// schema/index pair is published as one atomic pointer.
	resolved atomic.Pointer[colResolution]
}

type colResolution struct {
	schema *Schema
	idx    int
}

// String renders the reference as [table.]column.
func (c *ColumnRef) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// BinaryOp kinds.
const (
	OpEq  = "="
	OpNe  = "!="
	OpLt  = "<"
	OpLe  = "<="
	OpGt  = ">"
	OpGe  = ">="
	OpAnd = "AND"
	OpOr  = "OR"
	OpCat = "||"
)

// BinaryExpr applies Op to Left and Right.
type BinaryExpr struct {
	Op          string
	Left, Right Expr
}

// NotExpr is NOT Expr. A minus sign is not an operator: it folds into
// the numeric literal it precedes.
type NotExpr struct {
	Expr Expr
}

// LikeExpr is string pattern matching with % and _ wildcards.
type LikeExpr struct {
	Expr    Expr
	Pattern Expr
	Not     bool
}

// InExpr tests membership in a literal list.
type InExpr struct {
	Expr Expr
	List []Expr
	Not  bool

	// litSet memoises an all-literal list as encoded keys for O(1)
	// membership tests. Built lazily on first evaluation. The pointer is
	// atomic because cached plans share AST nodes across concurrent
	// queries and parallel-scan workers evaluate filters from several
	// goroutines; racing builders construct identical sets, so whichever
	// store wins is correct.
	litSet atomic.Pointer[map[string]bool]
}

// FuncCall is a scalar or aggregate function application.
type FuncCall struct {
	Name string // uppercased
	Args []Expr
	Star bool // COUNT(*)
}

// IsAggregate reports whether the call is an aggregate function.
func (f *FuncCall) IsAggregate() bool {
	switch f.Name {
	case "COUNT", "SUM", "MIN", "MAX":
		return true
	}
	return false
}

func (*Literal) expr()    {}
func (*ColumnRef) expr()  {}
func (*BinaryExpr) expr() {}
func (*NotExpr) expr()    {}
func (*LikeExpr) expr()   {}
func (*InExpr) expr()     {}
func (*FuncCall) expr()   {}

// ExprString renders an expression for error messages and plan output.
// The text parses back to the same tree (FuzzParse checks it).
func ExprString(e Expr) string {
	switch e := e.(type) {
	case *Literal:
		switch e.Val.Kind() {
		case value.KindText:
			return "'" + strings.ReplaceAll(e.Val.Text(), "'", "''") + "'"
		case value.KindFloat:
			// A float that prints like an integer ("2") reads back as INT.
			if s := e.Val.String(); !strings.ContainsAny(s, ".e") {
				return s + ".0"
			}
		}
		return e.Val.String()
	case *ColumnRef:
		if e.Table == "" {
			return identString(e.Column)
		}
		return identString(e.Table) + "." + identString(e.Column)
	case *BinaryExpr:
		if e.Op == OpAnd || e.Op == OpOr {
			return "(" + ExprString(e.Left) + " " + e.Op + " " + ExprString(e.Right) + ")"
		}
		return "(" + operandString(e.Left) + " " + e.Op + " " + operandString(e.Right) + ")"
	case *NotExpr:
		return "NOT " + ExprString(e.Expr)
	case *LikeExpr:
		return operandString(e.Expr) + notString(e.Not) + " LIKE " + operandString(e.Pattern)
	case *InExpr:
		parts := make([]string, len(e.List))
		for i, x := range e.List {
			parts[i] = ExprString(x)
		}
		return operandString(e.Expr) + notString(e.Not) + " IN (" + strings.Join(parts, ", ") + ")"
	case *FuncCall:
		if e.Star {
			return e.Name + "(*)"
		}
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = ExprString(a)
		}
		return e.Name + "(" + strings.Join(parts, ", ") + ")"
	}
	return "?"
}

// operandString renders an operand of a comparison, of || or of a
// LIKE/IN test. The grammar reads those operands below the NOT and
// predicate level, so a NOT or a predicate there needs parentheses.
func operandString(e Expr) string {
	switch e.(type) {
	case *NotExpr, *LikeExpr, *InExpr:
		return "(" + ExprString(e) + ")"
	}
	return ExprString(e)
}

func notString(not bool) string {
	if not {
		return " NOT"
	}
	return ""
}

// identString renders a table or column name, double-quoted when it
// would not lex back as the same plain identifier.
func identString(name string) string {
	plain := name != "" && isIdentStart(name[0]) && !keywords[strings.ToUpper(name)]
	for i := 1; plain && i < len(name); i++ {
		plain = isIdentPart(name[i])
	}
	if plain {
		return name
	}
	return `"` + name + `"`
}

// walkExpr calls visit on e and, while visit returns true, on each of
// its operands in turn, depth first. It is the package's one generic
// traversal of the expression tree: a node kind's operands are listed
// here and nowhere else, so every analysis built on it (predCols,
// resolvesIn, bindingsOf, collectAggs, the reference check) sees a new
// kind's operands without being edited. Per-kind semantics keep their own
// switches: Eval, ExprString, conjSelectivity and the rewriter bindAggs.
func walkExpr(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch e := e.(type) {
	case *BinaryExpr:
		walkExpr(e.Left, visit)
		walkExpr(e.Right, visit)
	case *NotExpr:
		walkExpr(e.Expr, visit)
	case *LikeExpr:
		walkExpr(e.Expr, visit)
		walkExpr(e.Pattern, visit)
	case *InExpr:
		walkExpr(e.Expr, visit)
		for _, x := range e.List {
			walkExpr(x, visit)
		}
	case *FuncCall:
		for _, a := range e.Args {
			walkExpr(a, visit)
		}
	}
}
