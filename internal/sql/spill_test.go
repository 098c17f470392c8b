package sql

// Join-spill tests: the memory-budgeted hash join must produce results
// byte-identical to the unbudgeted run for any budget and worker count,
// surface its spilling in EXPLAIN ANALYZE and the exec metrics, clean
// up its temp files, and degrade to a clean query error (never a wrong
// result) when the filesystem fails or crashes mid-spill. Sink
// retention tests rerun aggregation and sort under chunkPoison.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"xomatiq/internal/faultfs"
	"xomatiq/internal/obs"
	"xomatiq/internal/value"
)

// spillJoinQuery drives the partitioned hash join (k is unindexed) with
// a deterministic multi-row result.
const spillJoinQuery = `SELECT a.k, b.v FROM big a, big b WHERE a.k = b.k AND a.grp = 'g2'`

// TestJoinSpillByteIdentity is the acceptance bar: a join forced over a
// small budget spills, and its results — including row order — match
// the in-memory run for workers 1 and 4 across budgets.
func TestJoinSpillByteIdentity(t *testing.T) {
	db := openDB(t)
	seedBig(t, db, 3000)
	db.opts.QueryWorkers = 1
	base := rowStrings(mustQuery(t, db, spillJoinQuery))
	if len(base) == 0 {
		t.Fatal("probe join returned no rows")
	}
	for _, workers := range []int{1, 4} {
		for _, budget := range []int64{1 << 12, 1 << 16} {
			db.opts.QueryWorkers = workers
			db.opts.QueryMemBudget = budget
			spilledBefore := db.reg.Exec.JoinSpillParts.Load()
			got := rowStrings(mustQuery(t, db, spillJoinQuery))
			if strings.Join(got, "\n") != strings.Join(base, "\n") {
				t.Errorf("workers=%d budget=%d: %d rows diverged from the in-memory run (%d rows)",
					workers, budget, len(got), len(base))
			}
			if db.reg.Exec.JoinSpillParts.Load() == spilledBefore {
				t.Errorf("workers=%d budget=%d: join did not spill", workers, budget)
			}
		}
	}
	db.opts.QueryMemBudget = 0
	if db.reg.Exec.JoinSpillBytes.Load() == 0 || db.reg.Exec.JoinSpillLoads.Load() == 0 {
		t.Errorf("spill metrics not fed: bytes=%d loads=%d",
			db.reg.Exec.JoinSpillBytes.Load(), db.reg.Exec.JoinSpillLoads.Load())
	}
	// Spill files are scratch: none may survive the queries.
	leftovers, err := filepath.Glob(db.path + ".spill.*")
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Errorf("spill files leaked: %v", leftovers)
	}
}

// TestJoinSpillExplainAnalyze pins the observability: a spilled join's
// trace line carries the spilled-partition count.
func TestJoinSpillExplainAnalyze(t *testing.T) {
	db := openDB(t)
	seedBig(t, db, 3000)
	db.opts.QueryMemBudget = 1 << 12
	stmt, err := Parse(spillJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	qt := obs.NewQueryTrace(true)
	if _, err := db.QueryStmtOptsContext(context.Background(), stmt.(*Select), ExecOpts{Trace: qt}); err != nil {
		t.Fatal(err)
	}
	out := qt.Render(true)
	if !strings.Contains(out, "partitioned hash join") || !strings.Contains(out, "spilled=") {
		t.Fatalf("EXPLAIN ANALYZE missing spill annotation:\n%s", out)
	}
}

// TestSessionMemBudgetOverride checks the per-query override beats the
// DB-wide setting (the session layer rides ExecOpts.MemBudget).
func TestSessionMemBudgetOverride(t *testing.T) {
	db := openDB(t)
	seedBig(t, db, 3000)
	db.opts.QueryWorkers = 1
	base := rowStrings(mustQuery(t, db, spillJoinQuery))
	stmt, err := Parse(spillJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	before := db.reg.Exec.JoinSpillParts.Load()
	rows, err := db.QueryStmtOptsContext(context.Background(), stmt.(*Select), ExecOpts{MemBudget: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if db.reg.Exec.JoinSpillParts.Load() == before {
		t.Error("ExecOpts.MemBudget did not force a spill")
	}
	if strings.Join(rowStrings(rows), "\n") != strings.Join(base, "\n") {
		t.Error("budgeted override diverged from the in-memory run")
	}
}

// TestSinkPoisonedReuse extends the recycled-payload retention bar to
// the aggregation and sort sinks: rerunning aggregate, top-K, run-merge
// and DISTINCT queries under chunkPoison must reproduce the unpoisoned
// results with no 0xDB bytes leaking into them.
func TestSinkPoisonedReuse(t *testing.T) {
	db := openDB(t)
	seedBig(t, db, 1500)
	queries := []string{
		`SELECT grp, COUNT(*), MIN(v), MAX(v) FROM big GROUP BY grp ORDER BY grp`,
		`SELECT grp, COUNT(*) AS n FROM big GROUP BY grp ORDER BY n DESC, grp`,
		`SELECT v FROM big ORDER BY v DESC LIMIT 25`,
		`SELECT v, grp FROM big ORDER BY grp, v LIMIT 30`,
		`SELECT v FROM big WHERE k < 600 ORDER BY v`,
		`SELECT DISTINCT grp FROM big ORDER BY grp`,
	}
	want := make([][]string, len(queries))
	for i, q := range queries {
		want[i] = rowStrings(mustQuery(t, db, q))
		if len(want[i]) == 0 {
			t.Fatalf("probe %q returned no rows", q)
		}
	}
	chunkPoison = true
	defer func() { chunkPoison = false }()
	for i, q := range queries {
		got := rowStrings(mustQuery(t, db, q))
		for _, r := range got {
			if strings.Contains(r, "\xdb\xdb") {
				t.Fatalf("%s: poison bytes leaked into result row %q", q, r)
			}
		}
		if strings.Join(got, "\n") != strings.Join(want[i], "\n") {
			t.Errorf("%s: poisoned rerun diverged:\ngot  %v\nwant %v", q, got, want[i])
		}
	}
}

// seedSpillFault builds a deterministic faultfs-backed DB whose probe
// join spills under the configured budget. Every call replays the same
// op sequence, so a fault index learned once stays aligned.
func seedSpillFault(t *testing.T, fs *faultfs.FS) *DB {
	t.Helper()
	db, err := Open("spillfault.db", Options{
		FS: fs, PoolPages: 64, QueryWorkers: 1, QueryMemBudget: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE big (k INT, grp TEXT, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	var tups []value.Tuple
	for i := 0; i < 400; i++ {
		tups = append(tups, value.Tuple{
			value.NewInt(int64(i % 100)),
			value.NewText(fmt.Sprintf("g%d", i%7)),
			value.NewText(fmt.Sprintf("payload-%04d", i)),
		})
	}
	if err := db.InsertBatch("big", tups); err != nil {
		t.Fatal(err)
	}
	return db
}

const spillFaultQuery = `SELECT a.v, b.v FROM big a, big b WHERE a.k = b.k AND a.grp = 'g3'`

// TestSpillFaultSweep injects one I/O fault at every op offset inside a
// spilling join. Whatever the offset hits — spill-file open, write,
// read-back, or cleanup remove — the query must either fail cleanly
// with the injected error in its chain or succeed with exactly the
// fault-free result (cleanup removes are best-effort, so a fault there
// is swallowed). The DB stays usable either way.
func TestSpillFaultSweep(t *testing.T) {
	fs := faultfs.New(7)
	db := seedSpillFault(t, fs)
	reg := db.reg
	spilledBefore := reg.Exec.JoinSpillParts.Load()
	start := fs.Ops()
	base := rowStrings(mustQuery(t, db, spillFaultQuery))
	queryOps := fs.Ops() - start
	if reg.Exec.JoinSpillParts.Load() == spilledBefore {
		t.Fatal("probe query did not spill; sweep would be vacuous")
	}
	if len(base) == 0 || queryOps < 4 {
		t.Fatalf("weak probe: %d rows, %d ops", len(base), queryOps)
	}
	db.Close()

	for k := int64(0); k < queryOps; k++ {
		fs := faultfs.New(7)
		db := seedSpillFault(t, fs)
		fs.FailAt(fs.Ops()+k, faultfs.FaultErr)
		rows, err := db.Query(spillFaultQuery)
		if err != nil {
			if !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("op +%d: err = %v, want ErrInjected in chain", k, err)
			}
		} else if got := rowStrings(rows); strings.Join(got, "\n") != strings.Join(base, "\n") {
			t.Fatalf("op +%d: fault produced wrong rows (%d vs %d)", k, len(got), len(base))
		}
		// The fault must not poison the session: the next run is clean.
		if got := rowStrings(mustQuery(t, db, spillFaultQuery)); strings.Join(got, "\n") != strings.Join(base, "\n") {
			t.Fatalf("op +%d: query after fault diverged", k)
		}
		db.Close()
	}
}

// TestSpillCrashSweep power-cuts the filesystem at every op offset
// inside a spilling join: the query must fail with the crash error —
// never return a truncated or corrupt result.
func TestSpillCrashSweep(t *testing.T) {
	fs := faultfs.New(7)
	db := seedSpillFault(t, fs)
	start := fs.Ops()
	base := rowStrings(mustQuery(t, db, spillFaultQuery))
	queryOps := fs.Ops() - start
	if len(base) == 0 {
		t.Fatal("probe query returned no rows")
	}
	db.Close()

	for k := int64(0); k < queryOps; k++ {
		fs := faultfs.New(7)
		db := seedSpillFault(t, fs)
		fs.CrashAt(fs.Ops() + k)
		rows, err := db.Query(spillFaultQuery)
		if err == nil {
			// Only cleanup removes may be cut without failing the query;
			// the result must then be complete and correct.
			if got := rowStrings(rows); strings.Join(got, "\n") != strings.Join(base, "\n") {
				t.Fatalf("op +%d: crash produced wrong rows", k)
			}
		} else if !errors.Is(err, faultfs.ErrCrashed) {
			t.Fatalf("op +%d: err = %v, want ErrCrashed in chain", k, err)
		}
		db.Close()
	}
}
