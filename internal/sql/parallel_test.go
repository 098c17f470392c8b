package sql

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// seedBig creates an unindexed table spanning enough heap pages that the
// planner picks the parallel scan operator.
func seedBig(t *testing.T, db *DB, n int) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE big (k INT, grp TEXT, v TEXT)`)
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		mustExec(t, db, fmt.Sprintf(
			`INSERT INTO big VALUES (%d, 'g%d', 'payload-%06d-%s')`,
			i, i%13, i, strings.Repeat("x", 40)))
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	pages := db.cat.tables["big"].Heap.NumPages()
	if pages < parallelScanMinPages {
		t.Fatalf("seed spans %d pages, below the parallel threshold %d", pages, parallelScanMinPages)
	}
}

// parallelProbeQueries exercise the shapes the parallel operator rewires:
// driving scans with pushed-down filters, LIMIT early-stop, aggregates,
// and joins whose right side streams through the scan.
var parallelProbeQueries = []string{
	`SELECT k, v FROM big WHERE grp = 'g3'`,
	`SELECT k FROM big WHERE k >= 700 AND k < 2200 AND grp = 'g5'`,
	`SELECT v FROM big WHERE CONTAINS(v, '0013')`,
	`SELECT COUNT(*), MIN(k), MAX(k) FROM big WHERE grp = 'g7'`,
	`SELECT k FROM big LIMIT 5`,
	`SELECT a.k, b.v FROM big a, big b WHERE a.k = b.k AND a.grp = 'g1' AND b.grp = 'g1'`,
	`SELECT k, grp, v FROM big WHERE k IN (1, 500, 1500, 2500) ORDER BY k`,
}

// TestParallelScanDeterminism is the issue's acceptance bar: the full
// result of every probe query is byte-identical between QueryWorkers=1
// and QueryWorkers=4, including row order where no ORDER BY is given.
func TestParallelScanDeterminism(t *testing.T) {
	db := openDB(t)
	seedBig(t, db, 3000)
	for _, q := range parallelProbeQueries {
		db.opts.QueryWorkers = 1
		serial := rowStrings(mustQuery(t, db, q))
		db.opts.QueryWorkers = 4
		parallel := rowStrings(mustQuery(t, db, q))
		if strings.Join(serial, "\n") != strings.Join(parallel, "\n") {
			t.Errorf("%s:\nserial   (%d rows) %v\nparallel (%d rows) %v",
				q, len(serial), serial, len(parallel), parallel)
		}
	}
}

// TestParallelScanConcurrentClients runs the probe queries from many
// goroutines at once against one DB, checking each result against the
// serial answer; under -race this doubles as the shared-plan/shared-pool
// safety check.
func TestParallelScanConcurrentClients(t *testing.T) {
	db := openDB(t)
	seedBig(t, db, 3000)
	db.opts.QueryWorkers = 1
	want := make([]string, len(parallelProbeQueries))
	for i, q := range parallelProbeQueries {
		want[i] = strings.Join(rowStrings(mustQuery(t, db, q)), "\n")
	}
	db.opts.QueryWorkers = 4
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				q := parallelProbeQueries[(c+rep)%len(parallelProbeQueries)]
				i := (c + rep) % len(parallelProbeQueries)
				rows, err := db.Query(q)
				if err != nil {
					errs <- fmt.Errorf("%s: %v", q, err)
					return
				}
				if got := strings.Join(rowStrings(rows), "\n"); got != want[i] {
					errs <- fmt.Errorf("%s: result diverged under concurrency", q)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestParallelScanCancellation cancels a context before the scan starts
// and checks the query surfaces the cancellation instead of completing.
func TestParallelScanCancellation(t *testing.T) {
	db := openDB(t)
	seedBig(t, db, 3000)
	db.opts.QueryWorkers = 4
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, `SELECT COUNT(*) FROM big WHERE grp = 'g2'`); err == nil {
		t.Fatal("cancelled query returned no error")
	}
}

// TestExplainReportsParallelScan checks the EXPLAIN satellite: the plan
// trace names the operator with its worker and page counts, and stays
// sequential when the table is too small or workers are capped at 1.
func TestExplainReportsParallelScan(t *testing.T) {
	db := openDB(t)
	seedBig(t, db, 3000)
	db.opts.QueryWorkers = 4
	plan, err := db.Explain(`SELECT k FROM big WHERE grp = 'g3'`, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "parallel scan (4 workers, ") {
		t.Errorf("plan missing parallel scan line:\n%s", plan)
	}
	db.opts.QueryWorkers = 1
	plan, err = db.Explain(`SELECT k FROM big WHERE grp = 'g3'`, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "parallel scan") {
		t.Errorf("workers=1 plan still parallel:\n%s", plan)
	}
	mustExec(t, db, `CREATE TABLE tiny (k INT)`)
	mustExec(t, db, `INSERT INTO tiny VALUES (1)`)
	db.opts.QueryWorkers = 4
	plan, err = db.Explain(`SELECT k FROM tiny WHERE k = 1`, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "parallel scan") {
		t.Errorf("tiny table plan went parallel:\n%s", plan)
	}
}

// TestParallelScanAbandoned stresses the early-stop path: LIMIT abandons
// the iterator with workers mid-flight, and the query-lifetime done
// channel must release them without deadlocking later queries.
func TestParallelScanAbandoned(t *testing.T) {
	db := openDB(t)
	seedBig(t, db, 3000)
	db.opts.QueryWorkers = 4
	for i := 0; i < 20; i++ {
		r := mustQuery(t, db, `SELECT k FROM big LIMIT 3`)
		if len(r.Rows) != 3 {
			t.Fatalf("LIMIT 3 returned %d rows", len(r.Rows))
		}
	}
	// The pool must still be fully usable: every page pinned by workers
	// was unpinned even though the merger never drained them.
	r := mustQuery(t, db, `SELECT COUNT(*) FROM big`)
	if rowStrings(r)[0] != "3000" {
		t.Fatalf("count after abandoned scans = %v", rowStrings(r))
	}
}
