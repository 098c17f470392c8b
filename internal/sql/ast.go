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

// Update modifies rows matching Where.
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
}

// BeginTx, CommitTx and RollbackTx are the explicit transaction
// statements: BEGIN opens a batch (statements until COMMIT share one
// WAL transaction), COMMIT makes it durable atomically, ROLLBACK
// discards it. They map onto DB.Begin/Commit/Rollback; the session
// layer above intercepts them for its own Tx lifecycle.
type (
	BeginTx    struct{}
	CommitTx   struct{}
	RollbackTx struct{}
)

// Assignment is one SET column = expr clause.
type Assignment struct {
	Column string
	Expr   Expr
}

// Select is a query.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef // first entry plus JOINed tables
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
	Offset   int
}

// SelectItem is one output expression; Star marks "*".
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
}

// TableRef names a table with an optional alias and, for joined tables,
// the ON condition.
type TableRef struct {
	Table string
	Alias string
	On    Expr // nil for the first table
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
func (*Update) stmt()      {}
func (*Select) stmt()      {}
func (*BeginTx) stmt()     {}
func (*CommitTx) stmt()    {}
func (*RollbackTx) stmt()  {}

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
	OpAdd = "+"
	OpSub = "-"
	OpMul = "*"
	OpDiv = "/"
	OpCat = "||"
)

// BinaryExpr applies Op to Left and Right.
type BinaryExpr struct {
	Op          string
	Left, Right Expr
}

// UnaryExpr is NOT or unary minus.
type UnaryExpr struct {
	Op   string // "NOT" or "-"
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

// BetweenExpr is e BETWEEN lo AND hi.
type BetweenExpr struct {
	Expr   Expr
	Lo, Hi Expr
	Not    bool
}

// IsNullExpr is e IS [NOT] NULL.
type IsNullExpr struct {
	Expr Expr
	Not  bool
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
	case "COUNT", "SUM", "MIN", "MAX", "AVG":
		return true
	}
	return false
}

func (*Literal) expr()     {}
func (*ColumnRef) expr()   {}
func (*BinaryExpr) expr()  {}
func (*UnaryExpr) expr()   {}
func (*LikeExpr) expr()    {}
func (*InExpr) expr()      {}
func (*BetweenExpr) expr() {}
func (*IsNullExpr) expr()  {}
func (*FuncCall) expr()    {}

// ExprString renders an expression for error messages and plan output.
func ExprString(e Expr) string {
	switch e := e.(type) {
	case *Literal:
		if e.Val.Kind() == value.KindText {
			return "'" + strings.ReplaceAll(e.Val.Text(), "'", "''") + "'"
		}
		return e.Val.String()
	case *ColumnRef:
		return e.String()
	case *BinaryExpr:
		return "(" + ExprString(e.Left) + " " + e.Op + " " + ExprString(e.Right) + ")"
	case *UnaryExpr:
		return e.Op + " " + ExprString(e.Expr)
	case *LikeExpr:
		not := ""
		if e.Not {
			not = " NOT"
		}
		return ExprString(e.Expr) + not + " LIKE " + ExprString(e.Pattern)
	case *InExpr:
		parts := make([]string, len(e.List))
		for i, x := range e.List {
			parts[i] = ExprString(x)
		}
		not := ""
		if e.Not {
			not = " NOT"
		}
		return ExprString(e.Expr) + not + " IN (" + strings.Join(parts, ", ") + ")"
	case *BetweenExpr:
		return ExprString(e.Expr) + " BETWEEN " + ExprString(e.Lo) + " AND " + ExprString(e.Hi)
	case *IsNullExpr:
		if e.Not {
			return ExprString(e.Expr) + " IS NOT NULL"
		}
		return ExprString(e.Expr) + " IS NULL"
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
