package sql

import (
	"strings"
	"testing"

	"xomatiq/internal/value"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return stmt
}

func TestLexerBasics(t *testing.T) {
	toks, err := lex("SELECT a, 'it''s' FROM t -- comment\nWHERE x >= 1.5e2;")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.kind == tokEOF {
			break
		}
		texts = append(texts, tk.text)
	}
	want := []string{"SELECT", "a", ",", "it's", "FROM", "t", "WHERE", "x", ">=", "1.5e2", ";"}
	if strings.Join(texts, "|") != strings.Join(want, "|") {
		t.Errorf("lex = %v, want %v", texts, want)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", "\"unterminated", "SELECT 1e", "a ? b"} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q) should fail", src)
		}
	}
}

// TestLexerNonASCIINames: an unquoted name is ASCII, and the lexer
// refuses any other character by its whole UTF-8 sequence, not by its
// first byte. Quoted, the same name parses and prints back quoted.
func TestLexerNonASCIINames(t *testing.T) {
	_, err := Parse("SELECT é FROM t")
	if err == nil || !strings.Contains(err.Error(), `unexpected character "é"`) {
		t.Errorf(`Parse("SELECT é FROM t"): err = %v, want unexpected character "é"`, err)
	}
	st := mustParse(t, `SELECT "é" FROM t`).(*Select)
	if got := ExprString(st.Items[0].Expr); got != `"é"` {
		t.Errorf(`quoted é prints as %s`, got)
	}
}

func TestParseCreateTable(t *testing.T) {
	st := mustParse(t, `CREATE TABLE nodes (doc_id INT, name TEXT, score FLOAT, ok BOOL, blob BYTES)`).(*CreateTable)
	if st.Name != "nodes" || len(st.Columns) != 5 {
		t.Fatalf("bad parse: %+v", st)
	}
	wantKinds := []value.Kind{value.KindInt, value.KindText, value.KindFloat, value.KindBool, value.KindBytes}
	for i, k := range wantKinds {
		if st.Columns[i].Type != k {
			t.Errorf("column %d type = %v, want %v", i, st.Columns[i].Type, k)
		}
	}
	st2 := mustParse(t, `CREATE TABLE IF NOT EXISTS t (a INT)`).(*CreateTable)
	if !st2.IfNotExists {
		t.Error("IF NOT EXISTS not parsed")
	}
}

func TestParseCreateIndex(t *testing.T) {
	st := mustParse(t, `CREATE INDEX idx_val ON values_str (path_id, val)`).(*CreateIndex)
	if st.Name != "idx_val" || st.Table != "values_str" || len(st.Columns) != 2 {
		t.Fatalf("bad parse: %+v", st)
	}
	// Every index is a B-tree: an index-kind clause is trailing input.
	if _, err := Parse(`CREATE INDEX h ON t (a) USING HASH`); err == nil ||
		!strings.Contains(err.Error(), `unexpected "USING" after statement`) {
		t.Errorf("USING HASH: err = %v", err)
	}
}

func TestParseInsert(t *testing.T) {
	st := mustParse(t, `INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)`).(*Insert)
	if st.Table != "t" || len(st.Columns) != 2 || len(st.Rows) != 2 {
		t.Fatalf("bad parse: %+v", st)
	}
	if len(st.Rows[0]) != 2 {
		t.Error("row arity wrong")
	}
	st2 := mustParse(t, `INSERT INTO t VALUES (1)`).(*Insert)
	if st2.Columns != nil {
		t.Error("implicit columns should be nil")
	}
}

func TestParseSelectFull(t *testing.T) {
	src := `SELECT DISTINCT a.x AS col, COUNT(*) FROM t1 a, t2 b
	        WHERE a.id = b.id AND a.x > 3 AND CONTAINS(b.y, 'ket') GROUP BY a.x
	        ORDER BY col DESC, a.x LIMIT 10`
	st := mustParse(t, src).(*Select)
	if !st.Distinct || len(st.Items) != 2 || len(st.From) != 2 {
		t.Fatalf("bad parse: %+v", st)
	}
	if st.From[1].Binding() != "b" {
		t.Error("join not parsed")
	}
	if len(conjuncts(st.Where)) != 3 || len(st.GroupBy) != 1 {
		t.Error("where/group not parsed")
	}
	if len(st.OrderBy) != 2 || !st.OrderBy[0].Desc || st.OrderBy[1].Desc {
		t.Error("order by not parsed")
	}
	if st.Limit != 10 {
		t.Error("limit not parsed")
	}
}

func TestParseCommaJoin(t *testing.T) {
	st := mustParse(t, `SELECT * FROM a, b WHERE a.x = b.y`).(*Select)
	if len(st.From) != 2 || st.From[1].Binding() != "b" {
		t.Fatalf("comma join parse: %+v", st.From)
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	st := mustParse(t, `SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3`).(*Select)
	or, ok := st.Where.(*BinaryExpr)
	if !ok || or.Op != OpOr {
		t.Fatalf("top op = %v, want OR", st.Where)
	}
	and, ok := or.Right.(*BinaryExpr)
	if !ok || and.Op != OpAnd {
		t.Error("AND should bind tighter than OR")
	}
	// Comparisons bind tighter than AND: the descendant-interval test.
	st2 := mustParse(t, `SELECT * FROM t WHERE w.node_id > b.node_id AND w.node_id <= b.last_desc AND NOT a = 1`).(*Select)
	conjs := conjuncts(st2.Where)
	if len(conjs) != 3 {
		t.Fatalf("got %d conjuncts, want 3", len(conjs))
	}
	for i, op := range []string{OpGt, OpLe} {
		if c, ok := conjs[i].(*BinaryExpr); !ok || c.Op != op {
			t.Errorf("conjunct %d = %s, want a %s comparison", i, ExprString(conjs[i]), op)
		}
	}
	if not, ok := conjs[2].(*NotExpr); !ok || not.Expr.(*BinaryExpr).Op != OpEq {
		t.Errorf("NOT should bind looser than =: %s", ExprString(conjs[2]))
	}
}

func TestParsePredicates(t *testing.T) {
	st := mustParse(t, `SELECT * FROM t WHERE NOT a IN (4) AND b IN (1,2,3) AND NOT e = 1`).(*Select)
	conjs := conjuncts(st.Where)
	if len(conjs) != 3 {
		t.Fatalf("got %d conjuncts", len(conjs))
	}
	if n, ok := conjs[0].(*NotExpr); !ok {
		t.Error("NOT IN not parsed")
	} else if _, ok := n.Expr.(*InExpr); !ok {
		t.Error("NOT around IN not parsed")
	}
	if in, ok := conjs[1].(*InExpr); !ok || len(in.List) != 3 {
		t.Error("IN not parsed")
	}
	if _, ok := conjs[2].(*NotExpr); !ok {
		t.Error("NOT not parsed")
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	st := mustParse(t, `SELECT -5, -2.5 FROM t`).(*Select)
	if v := st.Items[0].Expr.(*Literal).Val; v.Int() != -5 {
		t.Errorf("got %v", v)
	}
	if v := st.Items[1].Expr.(*Literal).Val; v.Float() != -2.5 {
		t.Errorf("got %v", v)
	}
	// XQ2SQL writes a negative literal as it stands in the query.
	w := mustParse(t, `SELECT * FROM t n WHERE n.val > -5`).(*Select).Where.(*BinaryExpr)
	if v := w.Right.(*Literal).Val; v.Int() != -5 {
		t.Errorf("n.val > -5: right operand = %v", v)
	}
}

// TestParseRefusesRemovedSyntax: the dialect is what XQ2SQL, the
// shredding store and the ledger's probes write. Each construct outside
// it is refused with an error that names its token.
func TestParseRefusesRemovedSyntax(t *testing.T) {
	for _, c := range []struct{ src, token string }{
		{`SELECT a.v FROM a JOIN b ON a.k = b.k`, `"JOIN"`},
		{`SELECT a.v FROM a INNER JOIN b ON a.k = b.k`, `"JOIN"`},
		{`SELECT g FROM t GROUP BY g HAVING COUNT(*) > 1`, `"HAVING"`},
		{`SELECT a FROM t ORDER BY a LIMIT 5 OFFSET 5`, `"OFFSET"`},
		{`SELECT AVG(a) FROM t`, `"AVG"`},
		{`SELECT a FROM t WHERE a BETWEEN 1 AND 5`, `"BETWEEN"`},
		{`SELECT a FROM t WHERE a IS NULL`, `"IS"`},
		{`SELECT a FROM t WHERE a IS NOT NULL`, `"IS"`},
		{`SELECT LENGTH(a) FROM t`, `"LENGTH"`},
		{`SELECT LOWER(a) FROM t`, `"LOWER"`},
		{`SELECT UPPER(a) FROM t`, `"UPPER"`},
		{`SELECT ABS(a) FROM t`, `"ABS"`},
		{`SELECT SUBSTR(a, 1, 2) FROM t`, `"SUBSTR"`},
		{`SELECT a FROM t WHERE a + 1 = 2`, `"+"`},
		{`SELECT a FROM t WHERE a - 1 = 2`, `"-"`},
		{`SELECT a FROM t WHERE a * 2 = 2`, `"*"`},
		{`SELECT a FROM t WHERE a / 2 = 2`, `"/"`},
		{`SELECT a FROM t WHERE -a = 2`, `"-"`},
	} {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.token) {
			t.Errorf("Parse(%q): err = %v, want one naming %s", c.src, err, c.token)
		}
	}
}

func TestParseUpdateDelete(t *testing.T) {
	// The warehouse rewrites a document by DELETE and INSERT; the
	// dialect has no UPDATE.
	if _, err := Parse(`UPDATE t SET a = a + 1, b = 'x' WHERE id = 3`); err == nil {
		t.Error("UPDATE parsed; the dialect has no UPDATE")
	}
	del := mustParse(t, `DELETE FROM t`).(*Delete)
	if del.Where != nil {
		t.Error("delete without where should have nil Where")
	}
}

func TestParseDrop(t *testing.T) {
	dt := mustParse(t, `DROP TABLE IF EXISTS t`).(*DropTable)
	if !dt.IfExists || dt.Name != "t" {
		t.Errorf("bad drop table: %+v", dt)
	}
	di := mustParse(t, `DROP INDEX i`).(*DropIndex)
	if di.IfExists || di.Name != "i" {
		t.Errorf("bad drop index: %+v", di)
	}
}

func TestParseQuotedIdent(t *testing.T) {
	st := mustParse(t, `SELECT * FROM "hlx enzyme.DEFAULT"`).(*Select)
	if st.From[0].Table != "hlx enzyme.DEFAULT" {
		t.Errorf("quoted table = %q", st.From[0].Table)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"INSERT t VALUES (1)",
		"CREATE TABLE t ()",
		"CREATE TABLE t (a BLOB)",
		"SELECT * FROM t GROUP",
		"SELECT * FROM t LIMIT x",
		"SELECT UNKNOWN_FUNC(a) FROM t",
		"SELECT * FROM t; SELECT * FROM t",
		"SELECT a NOT 5 FROM t",
		"SELECT SUM(*) FROM t",
		"SELECT COUNT() FROM t",
		"SELECT SUM(a, b) FROM t",
		"SELECT CONTAINS(a) FROM t",
		// Neither pattern matching nor concatenation is in the dialect,
		// and NOT goes before a predicate, not inside it.
		"SELECT * FROM t WHERE a LIKE 'x%'",
		"SELECT * FROM t WHERE a NOT LIKE 'x%'",
		"SELECT a || 'x' FROM t",
		"SELECT * FROM t WHERE a = b || 'x'",
		"SELECT * FROM t WHERE a NOT IN (1, 2)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestExprString(t *testing.T) {
	st := mustParse(t, `SELECT * FROM t WHERE a = 'it''s' AND b IN (1,2) AND NOT c IN (3)`).(*Select)
	s := ExprString(st.Where)
	if !strings.Contains(s, "'it''s'") || !strings.Contains(s, "IN (1, 2)") || !strings.Contains(s, "NOT c IN (3)") {
		t.Errorf("ExprString = %q", s)
	}
}
