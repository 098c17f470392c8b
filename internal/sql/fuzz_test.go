package sql

import (
	"reflect"
	"testing"
)

// FuzzParse feeds arbitrary text through the SQL lexer and parser. The
// parser reads xq2sql-generated text and the statements the store and
// the ledger's probes write, and it must reject garbage with an error,
// never a panic. Every WHERE and SELECT-item expression it accepts must
// print, through ExprString, as text that parses back to the same tree:
// EXPLAIN shows that text as the predicate the plan runs.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		`SELECT a, b FROM t WHERE a = 1 AND b LIKE '%x%'`,
		`SELECT COUNT(*) FROM t`,
		`SELECT d.name, v.val FROM docs d, values_str v WHERE d.id = v.doc_id ORDER BY d.name`,
		`CREATE TABLE t (a INT, b TEXT, c FLOAT)`,
		`CREATE INDEX ix ON t (a, b)`,
		`INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')`,
		`INSERT INTO t VALUES (1, 'it''s')`,
		`SELECT a FROM t WHERE NOT (a >= 1 AND a <= -5)`,
		`DELETE FROM t WHERE a IN (1, 2, 3)`,
		`DROP TABLE t`,
		`SELECT DISTINCT a FROM t WHERE NOT (a = 1 OR b = 'x') LIMIT 5`,
		``,
		`SELECT`,
		`'unterminated`,
		`SELECT * FROM t WHERE a = 1e999`,
		`SELECT a FROM t WHERE b NOT LIKE 'x%'`,
		`DELETE FROM t WHERE a NOT IN (1, 2)`,
		`SELECT a || 'x' FROM t WHERE b || c = 'x'`,
		// Printer bugs the round trip found: quoted names, and a NOT or
		// a predicate as the operand of another operator.
		`SELECT "a b", "select", x."1" FROM t WHERE (NOT a) = 1`,
		`SELECT (a IN (1)) || 'x' FROM t WHERE (a LIKE 'x') = (b NOT IN (1, 2))`,
		// An unquoted name is ASCII; quoted, any name is one.
		`SELECT é FROM t`,
		`SELECT "é" FROM t`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src)
		if err != nil {
			return
		}
		var exprs []Expr
		switch st := st.(type) {
		case *Select:
			for _, it := range st.Items {
				exprs = append(exprs, it.Expr)
			}
			exprs = append(exprs, st.Where)
		case *Delete:
			exprs = append(exprs, st.Where)
		}
		for _, e := range exprs {
			if e == nil {
				continue
			}
			text := ExprString(e)
			back, err := Parse("SELECT * FROM t WHERE " + text)
			if err != nil {
				t.Fatalf("%q prints as %q, which does not parse: %v", src, text, err)
			}
			if got := back.(*Select).Where; !reflect.DeepEqual(got, e) {
				t.Fatalf("%q prints as %q, which parses to %q", src, text, ExprString(got))
			}
		}
	})
}
