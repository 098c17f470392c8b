package sql

import (
	"strings"
	"testing"

	"xomatiq/internal/value"
)

// evalConst evaluates an expression with no column references.
func evalConst(t *testing.T, src string) value.Value {
	t.Helper()
	stmt, err := Parse("SELECT " + src + " FROM dual")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	e := stmt.(*Select).Items[0].Expr
	v, err := Eval(e, Row{Schema: &Schema{}})
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestEvalComparisons(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"1 = 1", true}, {"1 = 2", false},
		{"1 != 2", true}, {"1 <> 1", false},
		{"1 < 2", true}, {"2 <= 2", true},
		{"3 > 2", true}, {"2 >= 3", false},
		{"'abc' < 'abd'", true},
		{"2 = 2.0", true},     // numbers compare whatever their kind
		{"'2' = 2", false},    // TEXT never equals a number
		{"'10' < '9'", true},  // text compares as text
		{"'2' IN (2)", false}, // IN keeps the same rule
		{"2 IN (1, 2, 3)", true},
		{"NOT 5 IN (1, 2, 3)", true},
		{"NOT FALSE", true},
		{"TRUE AND TRUE", true},
		{"TRUE AND FALSE", false},
		{"FALSE OR TRUE", true},
		{"NULL AND FALSE", false}, // the FALSE side decides
		{"TRUE OR NULL", true},    // the TRUE side decides
		{"1 IN (NULL, 1)", true},
	}
	for _, c := range cases {
		got := evalConst(t, c.src)
		if got.Kind() != value.KindBool || got.Bool() != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

// TestEvalNullLogic pins SQL's three-valued logic: a predicate with a
// NULL operand is NULL, not FALSE, so NOT around it stays NULL, and a
// filter drops the row either way.
func TestEvalNullLogic(t *testing.T) {
	for _, src := range []string{
		"NULL = NULL", "NULL = 1", "NULL <> 1", "NOT NULL = 1",
		"NULL IN (1, 2)", "NOT NULL IN (1, 2)", "3 IN (1, NULL)", "NOT 3 IN (1, NULL)",
		"NULL AND TRUE", "NOT (NULL AND TRUE)", "NULL OR FALSE", "NOT (NULL OR FALSE)",
		"CONTAINS(NULL, 'xyz')", "NOT CONTAINS(NULL, 'xyz')",
	} {
		if got := evalConst(t, src); !got.IsNull() {
			t.Errorf("%s = %v, want NULL", src, got)
		}
	}
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE t (a INT, b INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 2), (NULL, 3)`)
	for q, want := range map[string]string{
		`SELECT b FROM t WHERE NOT a = 1`:             "",
		`SELECT b FROM t WHERE a != 1`:                "",
		`SELECT b FROM t WHERE NOT (a = 1 AND b = 3)`: "2",
		`SELECT b FROM t WHERE NOT (a = 1 OR b = 3)`:  "",
		`SELECT b FROM t WHERE NOT a IN (1)`:          "",
		`SELECT b FROM t WHERE NOT a = 2`:             "2",
	} {
		if got := strings.Join(rowStrings(mustQuery(t, db, q)), ";"); got != want {
			t.Errorf("%s = [%s], want [%s]", q, got, want)
		}
	}
}

func TestEvalScalarFunctions(t *testing.T) {
	cases := []struct {
		src  string
		want value.Value
	}{
		{"CONTAINS('Catalytic KETONE activity', 'ketone')", value.NewBool(true)},
		{"CONTAINS('abc', 'xyz')", value.NewBool(false)},
		{"KWCONTAINS('a ketone body', 'ketone body')", value.NewBool(true)},
		{"KWCONTAINS('ketones', 'ketone')", value.NewBool(false)},
	}
	for _, c := range cases {
		got := evalConst(t, c.src)
		if value.Compare(got, c.want) != 0 {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestEvalColumnResolution(t *testing.T) {
	schema := &Schema{Cols: []SchemaCol{
		{Table: "a", Name: "id", Type: value.KindInt},
		{Table: "b", Name: "id", Type: value.KindInt},
		{Table: "b", Name: "name", Type: value.KindText},
	}}
	row := Row{Schema: schema, Values: value.Tuple{value.NewInt(1), value.NewInt(2), value.NewText("x")}}

	v, err := Eval(&ColumnRef{Table: "b", Column: "id"}, row)
	if err != nil || v.Int() != 2 {
		t.Errorf("qualified ref = %v, %v", v, err)
	}
	if _, err := Eval(&ColumnRef{Column: "id"}, row); err == nil {
		t.Error("ambiguous unqualified ref should fail")
	}
	v, err = Eval(&ColumnRef{Column: "name"}, row)
	if err != nil || v.Text() != "x" {
		t.Errorf("unambiguous unqualified ref = %v, %v", v, err)
	}
	if _, err := Eval(&ColumnRef{Column: "missing"}, row); err == nil {
		t.Error("missing column should fail")
	}
	// Case-insensitive resolution.
	v, err = Eval(&ColumnRef{Table: "B", Column: "NAME"}, row)
	if err != nil || v.Text() != "x" {
		t.Errorf("case-insensitive ref = %v, %v", v, err)
	}
}

func TestTruthy(t *testing.T) {
	cases := []struct {
		v    value.Value
		want bool
	}{
		{value.NewBool(true), true},
		{value.NewBool(false), false},
		{value.NewInt(1), true},
		{value.NewInt(0), false},
		{value.NewFloat(0.5), true},
		{value.Null, false},
		{value.NewText("x"), false},
	}
	for _, c := range cases {
		if truthy(c.v) != c.want {
			t.Errorf("truthy(%v) = %v", c.v, !c.want)
		}
	}
}
