package sql

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"xomatiq/internal/obs"
	"xomatiq/internal/value"
)

// Join-strategy tests: the index nested loop, the partitioned hash join
// and the cross join must agree on every query — NULL keys, duplicate
// keys, keys the index covers only in part, pushed-down filters — and
// each must be deterministic across worker counts, safe under chunk
// recycling, and cancellable mid-join. An index join that switches to
// its hash build must agree with them wherever the switch falls.

// joinStrategy names one way of running an equi-join and the plan line
// that proves the planner took it.
type joinStrategy struct {
	name   string
	plan   string
	index  bool // create indexes on a.k and b.k
	prefix bool // create indexes on a (k, v) and b (k, w): probes on a 1-column prefix
	cross  bool // write every equality a.x = b.y as a.x <= b.y AND a.x >= b.y
}

var joinStrategies = []joinStrategy{
	{name: "index nested loop", plan: "index nested loop via", index: true},
	{name: "hash join", plan: "partitioned hash join"},
	{name: "cross join", plan: "nested loop (cross)", cross: true},
	{name: "prefix probe", plan: "(1 of 2 cols", prefix: true},
}

// createJoinIndexes creates the indexes a strategy probes.
func (s joinStrategy) createJoinIndexes(t *testing.T, db *DB) {
	t.Helper()
	if s.index {
		mustExec(t, db, `CREATE INDEX idx_a_k ON a (k)`)
		mustExec(t, db, `CREATE INDEX idx_b_k ON b (k)`)
	}
	if s.prefix {
		mustExec(t, db, `CREATE INDEX idx_a_kv ON a (k, v)`)
		mustExec(t, db, `CREATE INDEX idx_b_kw ON b (k, w)`)
	}
}

// joinSwitchPoints are the switch points the index joins run at, as
// switchAfterProbes values: at the fetch budget, before the first left
// row, mid-chunk in the first and in the second 64-row chunk, and never
// (past the last left row, where no row is left to hash).
var joinSwitchPoints = []int{-1, 0, 3, 70, 1 << 30}

// eq renders the join equality a.l = b.r for a strategy; the cross form
// writes it as two range comparisons, which no join key uses.
func (s joinStrategy) eq(l, r string) string {
	if s.cross {
		return fmt.Sprintf("a.%[1]s <= b.%[2]s AND a.%[1]s >= b.%[2]s", l, r)
	}
	return fmt.Sprintf("a.%s = b.%s", l, r)
}

// joinQueries are the probe shapes, with %[1]s the k equality, %[2]s the
// j equality and %[3]s a second equality on b.k (a.j = b.k) of the
// strategy at hand. Every j is NULL or at least 0, so a.j >= 0 keeps the
// non-NULL rows of a.
var joinQueries = []string{
	`SELECT a.v, b.w FROM a, b WHERE %[1]s`,
	`SELECT a.v, b.w FROM a, b WHERE %[1]s AND %[2]s`,
	`SELECT a.v, b.w FROM a, b WHERE %[1]s AND b.j <> 1`,
	`SELECT a.v, b.w FROM a, b WHERE %[1]s AND b.w > 'b3' AND a.j >= 0`,
	`SELECT a.v, b.w FROM a, b WHERE %[1]s AND b.j < 2`,
	`SELECT a.v, b.w, b.j FROM a, b WHERE %[1]s AND %[2]s AND a.v < 'a5'`,
	`SELECT a.v, b.w FROM a, b WHERE %[1]s AND %[3]s`,
}

// seedJoinTables creates a(k, j, v) and b(k, j, w) with the given row
// counts; keys come from a small domain so duplicates are common, and
// about one key in five is NULL.
func seedJoinTables(t *testing.T, db *DB, rng *rand.Rand, na, nb int) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE a (k INT, j INT, v TEXT)`)
	mustExec(t, db, `CREATE TABLE b (k INT, j INT, w TEXT)`)
	key := func(domain int) value.Value {
		if rng.Intn(5) == 0 {
			return value.Null
		}
		return value.NewInt(int64(rng.Intn(domain)))
	}
	fill := func(table, prefix string, n int) {
		tups := make([]value.Tuple, n)
		for i := range tups {
			tups[i] = value.Tuple{key(6), key(3), value.NewText(fmt.Sprintf("%s%d", prefix, i))}
		}
		if err := db.InsertBatch(table, tups); err != nil {
			t.Fatal(err)
		}
	}
	fill("a", "a", na)
	fill("b", "b", nb)
}

// runJoinQuery runs q with the given worker count and returns its rows.
func runJoinQuery(t *testing.T, db *DB, q string, workers int) []string {
	t.Helper()
	db.opts.QueryWorkers = workers
	return rowStrings(mustQuery(t, db, q))
}

// FuzzJoinStrategies is the differential test of the join strategies.
// Every query runs as an index nested loop (indexes on a.k and b.k; the
// j equality is the uncovered pair), as a prefix probe (indexes on
// a (k, v) and b (k, w), of which the k equality covers the first
// column), as a partitioned hash join (no index) and as a cross join
// (each equality written as a pair of range comparisons). Both index
// strategies run at every switch point of joinSwitchPoints. All runs
// must return the same multiset; each must return byte-identical rows
// in the same order for QueryWorkers 1 and 4, under chunkPoison, and
// under a 1 KiB memory budget (a spilled build, switched into mid-chunk).
func FuzzJoinStrategies(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(9))
	f.Add(int64(2), uint8(40), uint8(40))
	f.Add(int64(3), uint8(0), uint8(5))
	f.Add(int64(4), uint8(7), uint8(0))
	f.Add(int64(5), uint8(200), uint8(150))
	f.Add(int64(42), uint8(25), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, na, nb uint8) {
		// Let the tiny tables take the parallel scan, so workers=4 runs a
		// different operator than workers=1.
		defer func(pages int, overhead float64) {
			parallelScanMinPages, parallelOverhead = pages, overhead
		}(parallelScanMinPages, parallelOverhead)
		parallelScanMinPages, parallelOverhead = 1, 0
		defer func() { switchAfterProbes = -1 }()

		type run struct {
			name string
			rows [][]string // sorted rows, per query
		}
		var runs []run
		for _, s := range joinStrategies {
			db := openDB(t)
			seedJoinTables(t, db, rand.New(rand.NewSource(seed)), int(na), int(nb))
			s.createJoinIndexes(t, db)
			switchPoints := []int{-1}
			if s.index || s.prefix {
				switchPoints = joinSwitchPoints
			}
			for _, at := range switchPoints {
				switchAfterProbes = at
				r := run{name: fmt.Sprintf("%s (switch at %d)", s.name, at)}
				for _, tmpl := range joinQueries {
					q := fmt.Sprintf(tmpl, s.eq("k", "k"), s.eq("j", "j"), s.eq("j", "k"))
					plan, err := db.Explain(q, ExecOpts{})
					if err != nil {
						t.Fatal(err)
					}
					if !strings.Contains(plan, s.plan) {
						t.Fatalf("%s: %s plan lacks %q:\n%s", s.name, q, s.plan, plan)
					}
					serial := runJoinQuery(t, db, q, 1)
					same := func(what string, got []string) {
						t.Helper()
						if strings.Join(got, "\n") != strings.Join(serial, "\n") {
							t.Fatalf("%s: %s: %s diverged:\n%v\n%v", r.name, q, what, got, serial)
						}
					}
					same("workers=4", runJoinQuery(t, db, q, 4))
					chunkPoison = true
					same("chunkPoison", runJoinQuery(t, db, q, 1))
					chunkPoison = false
					db.opts.QueryMemBudget = 1 << 10
					same("1 KiB memory budget", runJoinQuery(t, db, q, 1))
					db.opts.QueryMemBudget = 0
					sort.Strings(serial)
					r.rows = append(r.rows, serial)
				}
				runs = append(runs, r)
			}
		}
		for qi, tmpl := range joinQueries {
			want := strings.Join(runs[0].rows[qi], "\n")
			for _, r := range runs[1:] {
				if got := strings.Join(r.rows[qi], "\n"); got != want {
					t.Errorf("%s: %s returned\n%s\nbut %s returned\n%s",
						tmpl, r.name, got, runs[0].name, want)
				}
			}
		}
	})
}

// TestJoinNullKeys pins SQL's NULL semantics for equi-joins: NULL equals
// nothing, not even NULL, so the join does not pair the NULL-keyed rows,
// under any strategy.
func TestJoinNullKeys(t *testing.T) {
	for _, s := range joinStrategies {
		db := openDB(t)
		mustExec(t, db, `CREATE TABLE a (k INT, j INT, v TEXT)`)
		mustExec(t, db, `CREATE TABLE b (k INT, j INT, w TEXT)`)
		mustExec(t, db, `INSERT INTO a VALUES (1, 0, 'a1'), (NULL, 0, 'anull')`)
		mustExec(t, db, `INSERT INTO b VALUES (1, 0, 'b1'), (NULL, 0, 'bnull')`)
		s.createJoinIndexes(t, db)
		q := fmt.Sprintf(`SELECT a.v, b.w FROM a, b WHERE %s`, s.eq("k", "k"))
		plan, err := db.Explain(q, ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, s.plan) {
			t.Fatalf("%s: %s plan lacks %q:\n%s", s.name, q, s.plan, plan)
		}
		if got := rowStrings(mustQuery(t, db, q)); strings.Join(got, ";") != "a1|b1" {
			t.Errorf("%s: %s = %v, want [a1|b1]", s.name, q, got)
		}
	}
}

// cancelAfter is a context whose Err turns to context.Canceled after n
// calls, so a test can cancel a query at a fixed point of its execution
// without racing it. Only single-worker queries may use it.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestJoinStrategiesCancel cancels a query while each strategy's join is
// emitting rows: the query must stop with the context's error. The join
// line's actuals prove the cancel landed mid-join, after output began.
func TestJoinStrategiesCancel(t *testing.T) {
	for _, s := range joinStrategies {
		db := openDB(t)
		db.opts.QueryWorkers = 1
		mustExec(t, db, `CREATE TABLE a (k INT, j INT, v TEXT)`)
		mustExec(t, db, `CREATE TABLE b (k INT, j INT, w TEXT)`)
		for _, table := range []string{"a", "b"} {
			tups := make([]value.Tuple, 300)
			for i := range tups {
				tups[i] = value.Tuple{value.NewInt(int64(i % 3)), value.NewInt(0), value.NewText(fmt.Sprint(i))}
			}
			if err := db.InsertBatch(table, tups); err != nil {
				t.Fatal(err)
			}
		}
		if s.index {
			mustExec(t, db, `CREATE INDEX idx_b_k ON b (k)`)
		}
		if s.prefix {
			mustExec(t, db, `CREATE INDEX idx_b_kw ON b (k, w)`)
		}
		stmt, err := Parse(fmt.Sprintf(`SELECT a.v, b.w FROM a, b WHERE %s`, s.eq("k", "k")))
		if err != nil {
			t.Fatal(err)
		}
		qt := obs.NewQueryTrace(true)
		_, err = db.QueryStmtOptsContext(&cancelAfter{Context: context.Background(), n: 30},
			stmt.(*Select), ExecOpts{Trace: qt})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", s.name, err)
		}
		joined := int64(-1)
		for _, op := range qt.Operators() {
			if strings.HasPrefix(op.Op, "join ") {
				joined = op.Rows
			}
		}
		if joined <= 0 {
			t.Errorf("%s: cancel did not land mid-join (join rows before cancel = %d):\n%s",
				s.name, joined, qt.Render(true))
		}
	}
}

// TestExplainRunsNoIndexScan checks that plain EXPLAIN only plans: an
// index scan collects its RIDs when it first runs, so the pool hits of
// an EXPLAIN do not grow with the number of keys the scan would match.
func TestExplainRunsNoIndexScan(t *testing.T) {
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE n (k INT, v TEXT)`)
	tups := make([]value.Tuple, 5000)
	for i := range tups {
		tups[i] = value.Tuple{value.NewInt(int64(i)), value.NewText(fmt.Sprintf("v%d", i))}
	}
	if err := db.InsertBatch("n", tups); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE INDEX idx_n_k ON n (k)`)
	hits := func(q string) uint64 {
		before := db.pool.Stats().Hits
		plan, err := db.Explain(q, ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "index idx_n_k") {
			t.Fatalf("%s: plan does not use the index:\n%s", q, plan)
		}
		return db.pool.Stats().Hits - before
	}
	few, many := hits(`SELECT v FROM n WHERE k < 5`), hits(`SELECT v FROM n WHERE k < 3000`)
	if many != few {
		t.Errorf("EXPLAIN pool hits grow with matching keys: %d for k < 5, %d for k < 3000", few, many)
	}
}

// TestExplainAnalyzeJoinSwitch runs the golden switch case: the plain
// plan names the fetch budget, and EXPLAIN ANALYZE shows where the join
// switched and its build side's scan line, while the prefix probe case
// of the goldens never switches.
func TestExplainAnalyzeJoinSwitch(t *testing.T) {
	db := newPlanFixture(t, true)
	analyze := func(q string) string {
		t.Helper()
		qt := obs.NewQueryTrace(true)
		if _, err := db.QueryStmtOptsContext(context.Background(), mustParse(t, q).(*Select), ExecOpts{Trace: qt}); err != nil {
			t.Fatal(err)
		}
		return qt.Render(true)
	}
	switches := db.reg.Exec.JoinSwitches.Load()
	out := analyze(`SELECT d.label, e.val FROM dim d, ev e WHERE e.db = 'main' AND e.pid = d.k`)
	if !strings.Contains(out, "hash past 1000 rows (est rows=2500) (actual rows=1000 ") ||
		!strings.Contains(out, "(hash after 20 probes (1000 rows fetched))") ||
		!strings.Contains(out, "scan ev as e: sequential") {
		t.Errorf("switch case did not switch after 20 probes:\n%s", out)
	}
	if got := db.reg.Exec.JoinSwitches.Load() - switches; got != 1 {
		t.Errorf("exec.join_switches grew by %d, want 1", got)
	}
	if out := analyze(`SELECT s.name, e.val FROM small s, ev e WHERE e.db = s.name`); strings.Contains(out, "hash after") {
		t.Errorf("prefix probe case switched:\n%s", out)
	}
}
