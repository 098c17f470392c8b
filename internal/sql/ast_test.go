package sql

import (
	"fmt"
	goast "go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"reflect"
	"sort"
	"testing"

	"xomatiq/internal/value"
)

// exprKinds lists, from ast.go's source, every type that implements
// Expr, so a node kind added later cannot be left out of the coverage
// test below.
func exprKinds(t *testing.T) []string {
	t.Helper()
	f, err := goparser.ParseFile(gotoken.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, d := range f.Decls {
		fd, ok := d.(*goast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Name.Name != "expr" {
			continue
		}
		kinds = append(kinds, fd.Recv.List[0].Type.(*goast.StarExpr).X.(*goast.Ident).Name)
	}
	sort.Strings(kinds)
	return kinds
}

// operandSlots returns what a node holds in its Expr and []Expr fields.
func operandSlots(e Expr) []Expr {
	var slots []Expr
	v := reflect.ValueOf(e).Elem()
	exprType := reflect.TypeOf((*Expr)(nil)).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch {
		case f.Type() == exprType:
			x, _ := f.Interface().(Expr) // nil when the test left it empty
			slots = append(slots, x)
		case f.Kind() == reflect.Slice && f.Type().Elem() == exprType:
			for j := 0; j < f.Len(); j++ {
				x, _ := f.Index(j).Interface().(Expr)
				slots = append(slots, x)
			}
		}
	}
	return slots
}

// TestWalkExprVisitsEveryOperand builds one node of every expression
// kind with a distinct column in each operand slot. walkExpr must visit
// every one, and the analyses built on it must report every column: a
// kind or an operand walkExpr does not know would otherwise be planned
// as if it read nothing.
func TestWalkExprVisitsEveryOperand(t *testing.T) {
	n := 0
	col := func() Expr {
		n++
		return &ColumnRef{Table: fmt.Sprintf("t%d", n), Column: fmt.Sprintf("c%d", n)}
	}
	nodes := []Expr{
		&Literal{Val: value.NewInt(1)},
		col(),
		&BinaryExpr{Op: OpEq, Left: col(), Right: col()},
		&NotExpr{Expr: col()},
		&LikeExpr{Expr: col(), Pattern: col()},
		&InExpr{Expr: col(), List: []Expr{col(), col()}},
		&FuncCall{Name: "CONTAINS", Args: []Expr{col(), col()}},
	}
	var kinds []string
	for _, e := range nodes {
		kinds = append(kinds, reflect.TypeOf(e).Elem().Name())
	}
	sort.Strings(kinds)
	if want := exprKinds(t); !reflect.DeepEqual(kinds, want) {
		t.Fatalf("the test builds kinds %v; ast.go declares %v", kinds, want)
	}

	schema := &Schema{}
	var entries []fromEntry
	for _, e := range nodes {
		var cols []*ColumnRef
		for _, s := range operandSlots(e) {
			c, ok := s.(*ColumnRef)
			if !ok {
				t.Fatalf("%T: an operand slot holds %T, want a column", e, s)
			}
			cols = append(cols, c)
		}
		if c, ok := e.(*ColumnRef); ok {
			cols = append(cols, c)
		}

		visited := map[Expr]bool{}
		walkExpr(e, func(x Expr) bool {
			visited[x] = true
			return true
		})
		for _, c := range cols {
			if !visited[c] {
				t.Errorf("%s: walkExpr skips %s", ExprString(e), c)
			}
		}

		// Each column lives in a table of its own.
		var want uint64
		for _, c := range cols {
			schema.Cols = append(schema.Cols, SchemaCol{Table: c.Table, Name: c.Column, Type: value.KindInt})
			en := fromEntry{
				ref: TableRef{Table: c.Table},
				t:   &TableInfo{Name: c.Table, Columns: []ColumnDef{{Name: c.Column, Type: value.KindInt}}},
				pos: len(entries),
			}
			entries = append(entries, en)
			want |= en.bit()
		}
		got, ok := predCols(e, schema)
		if !ok || len(got) != len(cols) {
			t.Errorf("%s: predCols = %v, %v; want %d columns", ExprString(e), got, ok, len(cols))
		}
		if got := bindingMasks([]Expr{e}, entries)[0]; got != want {
			t.Errorf("%s: bindingMasks = %b, want %b", ExprString(e), got, want)
		}
	}
}
