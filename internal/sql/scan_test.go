package sql

import (
	"context"
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// seedBig creates an unindexed table spanning many heap pages, so every
// query over it runs a sequential scan.
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
}

// TestSeqScanConcurrentClients runs one parsed statement from many
// goroutines at once against one DB, checking each result against the
// answer of a lone run. Cached plans share their AST between sessions,
// so under -race this is the check that evaluating a shared filter (the
// IN list's memoised literal set among them) is safe.
func TestSeqScanConcurrentClients(t *testing.T) {
	db := openDB(t)
	seedBig(t, db, 3000)
	sel := mustParse(t, `SELECT k, v FROM big WHERE grp IN ('g1', 'g3', 'g5') AND CONTAINS(v, '7')`).(*Select)
	run := func() (string, error) {
		rows, err := db.QueryStmtOptsContext(context.Background(), sel, ExecOpts{})
		if err != nil {
			return "", err
		}
		return strings.Join(rowStrings(rows), "\n"), nil
	}
	var wg sync.WaitGroup
	results := make([]string, 8)
	errs := make([]error, 8)
	for c := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3 && errs[c] == nil; rep++ {
				results[c], errs[c] = run()
			}
		}()
	}
	wg.Wait()
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if want == "" {
		t.Fatal("probe statement returned no rows")
	}
	for c := range results {
		if errs[c] != nil {
			t.Errorf("client %d: %v", c, errs[c])
		} else if results[c] != want {
			t.Errorf("client %d: result diverged under concurrency", c)
		}
	}
}

// TestSeqScanCancellation cancels a context before the scan starts and
// checks the query surfaces the cancellation instead of completing.
func TestSeqScanCancellation(t *testing.T) {
	db := openDB(t)
	seedBig(t, db, 3000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, `SELECT COUNT(*) FROM big WHERE grp = 'g2'`); err == nil {
		t.Fatal("cancelled query returned no error")
	}
}

// TestSeqScanAbandoned stresses the early-stop path: LIMIT abandons the
// scan mid-heap, and every page it pinned must be released so that the
// pool serves later queries.
func TestSeqScanAbandoned(t *testing.T) {
	db := openDB(t)
	seedBig(t, db, 3000)
	for i := 0; i < 20; i++ {
		r := mustQuery(t, db, `SELECT k FROM big LIMIT 3`)
		if len(r.Rows) != 3 {
			t.Fatalf("LIMIT 3 returned %d rows", len(r.Rows))
		}
	}
	r := mustQuery(t, db, `SELECT COUNT(*) FROM big`)
	if rowStrings(r)[0] != "3000" {
		t.Fatalf("count after abandoned scans = %v", rowStrings(r))
	}
}

// TestStatementsLeaveNoGoroutines checks that a statement joins every
// goroutine it starts before it returns: after LIMIT-cut, cancelled and
// spilled queries, among them a partitioned join built on 4 workers,
// the goroutine count is back where it started. A goroutine outliving
// its statement could read pages after the statement released its
// snapshot.
func TestStatementsLeaveNoGoroutines(t *testing.T) {
	db := openDB(t)
	seedBig(t, db, 3000)
	join := `SELECT a.k, b.v FROM big a, big b WHERE a.k = b.k AND a.grp = 'g2'`
	plan, err := db.Explain(join, ExecOpts{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`partitioned hash join \(1 keys, partitions=([2-9]|\d\d)\)`).MatchString(plan) {
		t.Fatalf("join does not build more than one partition:\n%s", plan)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	runs := []struct {
		name string
		ctx  context.Context
		sql  string
		opts ExecOpts
	}{
		{"limit", context.Background(), `SELECT k FROM big LIMIT 3`, ExecOpts{}},
		{"limit join", context.Background(), join + ` LIMIT 2`, ExecOpts{Workers: 4}},
		{"cancelled", cancelled, `SELECT COUNT(*) FROM big WHERE grp = 'g2'`, ExecOpts{}},
		{"cancelled join", cancelled, join, ExecOpts{Workers: 4}},
		{"join", context.Background(), join, ExecOpts{Workers: 4}},
		{"spilled join", context.Background(), join, ExecOpts{Workers: 4, MemBudget: 1 << 10}},
	}
	start := runtime.NumGoroutine()
	for _, r := range runs {
		_, err := db.QueryStmtOptsContext(r.ctx, mustParse(t, r.sql).(*Select), r.opts)
		if (err != nil) != (r.ctx == cancelled) {
			t.Fatalf("%s: err = %v", r.name, err)
		}
		if n := runtime.NumGoroutine(); n != start {
			t.Errorf("%s: %d goroutines after the statement, %d before", r.name, n, start)
		}
	}
	if got := db.reg.Exec.JoinSpillParts.Load(); got == 0 {
		t.Error("the budgeted join spilled no partition")
	}
}
