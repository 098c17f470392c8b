package sql

import (
	"fmt"
	"strings"
	"testing"
)

// seedCounterFixture builds the fixed tables of the counter parity test:
// a B-tree index on a.k and b.k, duplicate keys in b, and no NULL in any
// join column.
func seedCounterFixture(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE a (k INT, j INT, v TEXT)`)
	mustExec(t, db, `CREATE TABLE b (k INT, j INT, w TEXT)`)
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO a VALUES (%d, %d, 'a-%04d-%s')`,
			i, i%10, i, strings.Repeat("p", 30)))
	}
	for i := 0; i < 300; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO b VALUES (%d, %d, 'b-%04d')`, i%150, i%7, i))
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE INDEX idx_a_k ON a (k)`)
	mustExec(t, db, `CREATE INDEX idx_b_k ON b (k)`)
}

// TestCounterParity pins the exact work counters every access path, join
// strategy and DML path feeds for a fixed script. The ledger reads
// heap.pages_scanned_per_op, btree.searches_per_op and
// sql.rows_examined_per_row from these counters, so an executor rewrite
// must reproduce them exactly. Each statement's plan is checked too, so
// a planner change cannot silently move a case onto another path.
func TestCounterParity(t *testing.T) {
	db := openDB(t)
	db.opts.QueryWorkers = 1
	seedCounterFixture(t, db)
	type counters struct{ pages, records, btree uint64 }
	read := func() counters {
		return counters{
			db.reg.Heap.PagesScanned.Load(), db.reg.Heap.RecordsScanned.Load(),
			db.reg.Index.BTreeSearches.Load(),
		}
	}
	cases := []struct {
		sql  string
		plan string // substring the SELECT's plan must contain
		want counters
	}{
		{`SELECT COUNT(*) FROM a WHERE v LIKE '%7%'`, "scan a as a: sequential", counters{3, 400, 0}},
		{`SELECT v FROM a WHERE k < 40`, "index idx_a_k (prefix+range scan", counters{0, 0, 1}},
		{`SELECT a.v, b.w FROM a JOIN b ON a.k = b.k WHERE a.k < 30`, "index nested loop via idx_b_k", counters{0, 0, 31}},
		{`SELECT a.v, b.w FROM a JOIN b ON a.j = b.j WHERE a.k < 20`, "partitioned hash join", counters{1, 300, 1}},
		{`SELECT COUNT(*) FROM a JOIN b ON a.k + 0 = b.k WHERE a.k < 5`, "nested loop (cross)", counters{1, 300, 1}},
		{`DELETE FROM b WHERE w LIKE '%-01%'`, "", counters{1, 300, 0}},
		{`DELETE FROM a WHERE k IN (3, 4, 5)`, "", counters{0, 0, 3}},
		{`UPDATE b SET w = 'x' WHERE j = 3`, "", counters{1, 200, 0}},
		{`UPDATE a SET v = 'y' WHERE k = 100`, "", counters{0, 0, 1}},
		{`DELETE FROM a WHERE v LIKE '%-03%'`, "", counters{3, 397, 0}},
	}
	for _, c := range cases {
		if c.plan != "" {
			plan, err := db.Explain(c.sql, ExecOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, c.plan) {
				t.Fatalf("%s: plan lacks %q:\n%s", c.sql, c.plan, plan)
			}
		}
		before := read()
		mustExec(t, db, c.sql)
		after := read()
		got := counters{
			after.pages - before.pages, after.records - before.records,
			after.btree - before.btree,
		}
		if got != c.want {
			t.Errorf("%s: counters {pages records btree} = %v, want %v", c.sql, got, c.want)
		}
	}
}
