package sql

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// seedCounterFixture builds the fixed tables of the counter parity test:
// a B-tree index on a.k and b.k, a 3-column index on b (k, j, w) that a
// k and j equi-join probes on a 2-column prefix, duplicate keys in b,
// and no NULL in any join column.
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
	mustExec(t, db, `CREATE INDEX idx_b_kjw ON b (k, j, w)`)
}

// TestCounterParity pins the exact work counters every access path, join
// strategy, sink and DML path feeds for a fixed script. The ledger reads
// heap.pages_scanned_per_op, btree.searches_per_op and
// sql.rows_examined_per_row from these counters, so an executor rewrite
// must reproduce them exactly. The exec counters pin the group-by, top-k
// sort, spilled-join and join-switch operators the same way, and a scan at 4 workers
// must read exactly the pages and records of the serial scan. Each
// statement's plan is checked too, so a planner change cannot silently
// move a case onto another path.
func TestCounterParity(t *testing.T) {
	db := openDB(t)
	db.opts.QueryWorkers = 1
	seedCounterFixture(t, db)
	// The fixture's heaps are a few pages each; let a 4-worker scan fan
	// out over them.
	defer func(pages int) { parallelScanMinPages = pages }(parallelScanMinPages)
	parallelScanMinPages = 1
	type counters struct{ pages, records, btree uint64 }
	type execCounters struct{ groups, sortRuns, spillParts, spillLoads, switches uint64 }
	read := func() (counters, execCounters) {
		return counters{
				db.reg.Heap.PagesScanned.Load(), db.reg.Heap.RecordsScanned.Load(),
				db.reg.Index.BTreeSearches.Load(),
			}, execCounters{
				db.reg.Exec.AggGroups.Load(), db.reg.Exec.SortRuns.Load(),
				db.reg.Exec.JoinSpillParts.Load(), db.reg.Exec.JoinSpillLoads.Load(),
				db.reg.Exec.JoinSwitches.Load(),
			}
	}
	cases := []struct {
		sql  string
		opts ExecOpts // SELECT overrides; zero runs the statement through Exec
		plan string   // substring the SELECT's plan must contain
		want counters
		exec execCounters
	}{
		{`SELECT COUNT(*) FROM a WHERE v LIKE '%7%'`, ExecOpts{}, "scan a as a: sequential", counters{3, 400, 0}, execCounters{groups: 1}},
		{`SELECT COUNT(*) FROM a WHERE v LIKE '%7%'`, ExecOpts{Workers: 4}, "parallel scan (3 workers, 3 pages)", counters{3, 400, 0}, execCounters{groups: 1}},
		{`SELECT v FROM a WHERE k < 40`, ExecOpts{}, "index idx_a_k (prefix+range scan", counters{0, 0, 1}, execCounters{}},
		{`SELECT a.v, b.w FROM a, b WHERE a.k = b.k AND a.k < 30`, ExecOpts{}, "index nested loop via idx_b_k", counters{0, 0, 31}, execCounters{}},
		{`SELECT a.v, b.w FROM a, b WHERE a.k = b.k AND a.j = b.j AND a.k < 30`, ExecOpts{}, "index nested loop via idx_b_kjw (2 of 3 cols, 2 keys), hash past 300 rows", counters{0, 0, 31}, execCounters{}},
		{`SELECT a.v, b.w FROM a, b WHERE a.k = b.k AND a.k < 200`, ExecOpts{}, "index nested loop via idx_b_k (1 of 1 cols, 1 keys), hash past 300 rows", counters{1, 300, 151}, execCounters{switches: 1}},
		{`SELECT a.v, b.w FROM a, b WHERE a.k = b.k AND a.k < 200`, ExecOpts{MemBudget: 1 << 10}, "index nested loop via idx_b_k", counters{1, 300, 151}, execCounters{spillParts: 54, spillLoads: 10, switches: 1}},
		{`SELECT a.v, b.w FROM a, b WHERE a.j = b.j AND a.k < 20`, ExecOpts{}, "partitioned hash join", counters{1, 300, 1}, execCounters{}},
		{`SELECT a.v, b.w FROM a, b WHERE a.j = b.j AND a.k < 20`, ExecOpts{MemBudget: 1 << 10}, "partitioned hash join", counters{1, 300, 1}, execCounters{spillParts: 6, spillLoads: 6}},
		{`SELECT j, COUNT(*), SUM(k) FROM a GROUP BY j`, ExecOpts{}, "hash aggregate (1 group cols, 2 aggs)", counters{3, 400, 0}, execCounters{groups: 10}},
		{`SELECT k, v FROM a WHERE v LIKE '%1%' ORDER BY v DESC LIMIT 5`, ExecOpts{}, "sort: top-k (k=5)", counters{3, 400, 0}, execCounters{}},
		{`SELECT k, v FROM a WHERE v LIKE '%1%' ORDER BY v DESC`, ExecOpts{}, "sort: run-merge (1 keys)", counters{3, 400, 0}, execCounters{sortRuns: 1}},
		{`SELECT COUNT(*) FROM a, b WHERE a.k <= b.k AND a.k >= b.k AND a.k < 5`, ExecOpts{}, "nested loop (cross)", counters{1, 300, 1}, execCounters{groups: 1}},
		{`DELETE FROM b WHERE w LIKE '%-01%'`, ExecOpts{}, "", counters{1, 300, 0}, execCounters{}},
		{`DELETE FROM a WHERE k IN (3, 4, 5)`, ExecOpts{}, "", counters{0, 0, 3}, execCounters{}},
		{`DELETE FROM a WHERE v LIKE '%-03%'`, ExecOpts{}, "", counters{3, 397, 0}, execCounters{}},
	}
	for _, c := range cases {
		if c.plan != "" {
			plan, err := db.Explain(c.sql, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, c.plan) {
				t.Fatalf("%s: plan lacks %q:\n%s", c.sql, c.plan, plan)
			}
		}
		before, beforeExec := read()
		if c.opts == (ExecOpts{}) {
			mustExec(t, db, c.sql)
		} else if _, err := db.QueryStmtOptsContext(context.Background(), mustParse(t, c.sql).(*Select), c.opts); err != nil {
			t.Fatal(err)
		}
		after, afterExec := read()
		got := counters{
			after.pages - before.pages, after.records - before.records,
			after.btree - before.btree,
		}
		if got != c.want {
			t.Errorf("%s %+v: counters {pages records btree} = %v, want %v", c.sql, c.opts, got, c.want)
		}
		gotExec := execCounters{
			afterExec.groups - beforeExec.groups, afterExec.sortRuns - beforeExec.sortRuns,
			afterExec.spillParts - beforeExec.spillParts, afterExec.spillLoads - beforeExec.spillLoads,
			afterExec.switches - beforeExec.switches,
		}
		if gotExec != c.exec {
			t.Errorf("%s %+v: exec counters {groups sortRuns spillParts spillLoads switches} = %v, want %v", c.sql, c.opts, gotExec, c.exec)
		}
	}
}
