package sql

import (
	"fmt"
	"strings"
	"testing"
)

// seedNumbers creates a table with a secondary index and n rows.
func seedNumbers(t *testing.T, db *DB, n int) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE nums (k INT, grp TEXT, v TEXT)`)
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		mustExec(t, db, fmt.Sprintf(
			`INSERT INTO nums VALUES (%d, 'g%d', 'val-%04d')`, i, i%7, i))
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE INDEX idx_nums ON nums (k)`)
	mustExec(t, db, `CREATE INDEX idx_grp ON nums (grp, v)`)
}

func TestInListUsesIndexAndIsCorrect(t *testing.T) {
	db := openDB(t)
	seedNumbers(t, db, 500)
	r := mustQuery(t, db, `SELECT v FROM nums WHERE k IN (3, 100, 499, 9999) ORDER BY v`)
	want := []string{"val-0003", "val-0100", "val-0499"}
	if got := rowStrings(r); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("IN query = %v", got)
	}
	// NOT around IN must not use the point-lookup path.
	r = mustQuery(t, db, `SELECT COUNT(*) FROM nums WHERE NOT k IN (3, 100)`)
	if rowStrings(r)[0] != "498" {
		t.Errorf("NOT IN count = %v", rowStrings(r))
	}
	// IN on a composite index's leading column plus a range.
	r = mustQuery(t, db, `SELECT COUNT(*) FROM nums WHERE grp IN ('g0', 'g3') AND v >= 'val-0100'`)
	want2 := 0
	for i := 0; i < 500; i++ {
		if (i%7 == 0 || i%7 == 3) && fmt.Sprintf("val-%04d", i) >= "val-0100" {
			want2++
		}
	}
	if rowStrings(r)[0] != fmt.Sprint(want2) {
		t.Errorf("IN+range = %v, want %d", rowStrings(r), want2)
	}
}

func TestInListEmptyAndMiss(t *testing.T) {
	db := openDB(t)
	seedNumbers(t, db, 50)
	r := mustQuery(t, db, `SELECT COUNT(*) FROM nums WHERE k IN (1000, 2000)`)
	if rowStrings(r)[0] != "0" {
		t.Errorf("miss = %v", rowStrings(r))
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE pairs (id INT, partner INT, name TEXT)`)
	mustExec(t, db, `INSERT INTO pairs VALUES (1, 2, 'alpha'), (2, 1, 'beta'), (3, 3, 'gamma')`)
	r := mustQuery(t, db, `SELECT a.name, b.name FROM pairs a, pairs b WHERE a.partner = b.id ORDER BY a.id`)
	want := []string{"alpha|beta", "beta|alpha", "gamma|gamma"}
	if got := rowStrings(r); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("self join = %v", got)
	}
}

func TestOrderByMultipleMixedDirections(t *testing.T) {
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE t (a INT, b TEXT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1,'x'), (1,'y'), (2,'x'), (2,'y')`)
	r := mustQuery(t, db, `SELECT a, b FROM t ORDER BY a DESC, b ASC`)
	want := []string{"2|x", "2|y", "1|x", "1|y"}
	if got := rowStrings(r); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("mixed order = %v", got)
	}
}

func TestPushdownPreservesCrossBindingSemantics(t *testing.T) {
	// A conjunct mentioning both tables must not be pushed into either
	// side; verify a filter that would change results if mis-pushed.
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE l (id INT, v INT)`)
	mustExec(t, db, `CREATE TABLE r (id INT, v INT)`)
	mustExec(t, db, `INSERT INTO l VALUES (1, 10), (2, 20)`)
	mustExec(t, db, `INSERT INTO r VALUES (1, 5), (2, 30)`)
	res := mustQuery(t, db, `SELECT l.id FROM l, r WHERE l.id = r.id AND l.v > r.v`)
	if len(res.Rows) != 1 || rowStrings(res)[0] != "1" {
		t.Errorf("cross-binding comparison = %v", rowStrings(res))
	}
}

func TestUnqualifiedAmbiguousNotPushed(t *testing.T) {
	// "v" exists in both tables: a conjunct on the bare name is
	// ambiguous and must error at evaluation, not be silently pushed.
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE l (id INT, v INT)`)
	mustExec(t, db, `CREATE TABLE r (id INT, v INT)`)
	mustExec(t, db, `INSERT INTO l VALUES (1, 10)`)
	mustExec(t, db, `INSERT INTO r VALUES (1, 10)`)
	if _, err := db.Query(`SELECT l.id FROM l, r WHERE l.id = r.id AND v = 10`); err == nil {
		t.Error("ambiguous column should error")
	}
}

func TestDeleteUpdateViaIndexPath(t *testing.T) {
	db := openDB(t)
	seedNumbers(t, db, 200)
	res := mustExec(t, db, `DELETE FROM nums WHERE k IN (10, 20, 30)`)
	if res.RowsAffected != 3 {
		t.Errorf("deleted %d", res.RowsAffected)
	}
	// An update is a DELETE through the index and an INSERT of the same key.
	res = mustExec(t, db, `DELETE FROM nums WHERE k = 40`)
	if res.RowsAffected != 1 {
		t.Errorf("deleted %d for the update", res.RowsAffected)
	}
	mustExec(t, db, `INSERT INTO nums VALUES (40, 'g5', 'touched')`)
	r := mustQuery(t, db, `SELECT COUNT(*) FROM nums`)
	if rowStrings(r)[0] != "197" {
		t.Errorf("count = %v", rowStrings(r))
	}
	r = mustQuery(t, db, `SELECT v FROM nums WHERE k = 40`)
	if rowStrings(r)[0] != "touched" {
		t.Errorf("update lost = %v", rowStrings(r))
	}
	// Index consistency after DML through the index path.
	r = mustQuery(t, db, `SELECT COUNT(*) FROM nums WHERE k IN (10, 20, 30, 40)`)
	if rowStrings(r)[0] != "1" {
		t.Errorf("index stale = %v", rowStrings(r))
	}
}

func TestResidualAppliedEarlyStillCorrect(t *testing.T) {
	// Three-way join where a cross-binding residual involves only the
	// first two tables; applying it early must not change results.
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE a (id INT, x INT)`)
	mustExec(t, db, `CREATE TABLE b (id INT, x INT)`)
	mustExec(t, db, `CREATE TABLE c (id INT)`)
	mustExec(t, db, `INSERT INTO a VALUES (1, 1), (2, 5)`)
	mustExec(t, db, `INSERT INTO b VALUES (1, 2), (2, 2)`)
	mustExec(t, db, `INSERT INTO c VALUES (1), (2)`)
	r := mustQuery(t, db, `SELECT a.id, c.id FROM a, b, c
		WHERE a.id = b.id AND a.x < b.x AND c.id = a.id`)
	if len(r.Rows) != 1 || rowStrings(r)[0] != "1|1" {
		t.Errorf("early residual = %v", rowStrings(r))
	}
}

func TestLimitEarlyOutWithoutSort(t *testing.T) {
	db := openDB(t)
	seedNumbers(t, db, 300)
	r := mustQuery(t, db, `SELECT v FROM nums LIMIT 5`)
	if len(r.Rows) != 5 {
		t.Errorf("limit rows = %d", len(r.Rows))
	}
	r = mustQuery(t, db, `SELECT v FROM nums LIMIT 0`)
	if len(r.Rows) != 0 {
		t.Errorf("LIMIT 0 rows = %d", len(r.Rows))
	}
}
