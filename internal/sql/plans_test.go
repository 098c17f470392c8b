// plans_test.go is the golden-plan snapshot harness: every case under
// testdata/plans/*.test records a query and the EXPLAIN output the
// planner must produce against the fixture warehouse below. Planner
// changes therefore surface as reviewable golden diffs. Regenerate with
//
//	go test ./internal/sql/ -run TestGoldenPlans -update
//
// after verifying the new plans are intentional.
package sql

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"xomatiq/internal/obs"
	"xomatiq/internal/value"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/plans goldens from current planner output")

// newPlanFixture builds the deterministic corpus the goldens are pinned
// against. analyze toggles the post-load ANALYZE: the stats-flip tests
// diff plans across it.
//
//   - small:  20 rows, unique id and name, each indexed
//   - big:    4000 rows; cat is heavily skewed ("common" on 3800 rows,
//     rare0..rare9 on 20 each, rareK = ids [20K,20K+20)); v cycles
//     0..999; pad is unindexed filler
//   - dim:    50 rows, indexed k, label L0..L49
//   - fact:   3000 rows; fk joins big.id, dk joins dim.k (only fk indexed)
//   - ev:     1000 rows shaped like the shredded value tables: db is a
//     single constant value (the classic all-rows-match column), pid
//     cycles 0..19, compound index (db, pid)
//   - sparse: 1500 rows bulk-deleted down to 30 — many pages, few rows
func newPlanFixture(t *testing.T, analyze bool) *DB {
	t.Helper()
	db, err := Open(filepath.Join(t.TempDir(), "plans.db"), Options{QueryWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ddl := []string{
		`CREATE TABLE small (id INT, name TEXT)`,
		`CREATE INDEX idx_small_id ON small (id)`,
		`CREATE INDEX idx_small_name ON small (name)`,
		`CREATE TABLE big (id INT, cat TEXT, v INT, pad TEXT)`,
		`CREATE INDEX idx_big_id ON big (id)`,
		`CREATE INDEX idx_big_cat ON big (cat)`,
		`CREATE INDEX idx_big_v ON big (v)`,
		`CREATE TABLE dim (k INT, label TEXT)`,
		`CREATE INDEX idx_dim_k ON dim (k)`,
		`CREATE TABLE fact (fk INT, dk INT, amt INT)`,
		`CREATE INDEX idx_fact_fk ON fact (fk)`,
		`CREATE TABLE ev (db TEXT, pid INT, val TEXT)`,
		`CREATE INDEX idx_ev ON ev (db, pid)`,
		`CREATE TABLE sparse (id INT, note TEXT)`,
	}
	for _, q := range ddl {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	var tups []value.Tuple
	for i := 0; i < 20; i++ {
		tups = append(tups, value.Tuple{value.NewInt(int64(i)), value.NewText(fmt.Sprintf("n%d", i))})
	}
	mustBatch(t, db, "small", tups)
	tups = nil
	for i := 0; i < 4000; i++ {
		cat := "common"
		if i < 200 {
			cat = fmt.Sprintf("rare%d", i/20)
		}
		tups = append(tups, value.Tuple{
			value.NewInt(int64(i)), value.NewText(cat),
			value.NewInt(int64(i % 1000)), value.NewText(fmt.Sprintf("pad%04d", i)),
		})
	}
	mustBatch(t, db, "big", tups)
	tups = nil
	for i := 0; i < 50; i++ {
		tups = append(tups, value.Tuple{value.NewInt(int64(i)), value.NewText(fmt.Sprintf("L%d", i))})
	}
	mustBatch(t, db, "dim", tups)
	tups = nil
	for i := 0; i < 3000; i++ {
		tups = append(tups, value.Tuple{
			value.NewInt(int64(i % 4000)), value.NewInt(int64(i % 50)), value.NewInt(int64(i)),
		})
	}
	mustBatch(t, db, "fact", tups)
	tups = nil
	for i := 0; i < 1000; i++ {
		tups = append(tups, value.Tuple{
			value.NewText("main"), value.NewInt(int64(i % 20)), value.NewText(fmt.Sprintf("v%d", i)),
		})
	}
	mustBatch(t, db, "ev", tups)
	tups = nil
	filler := strings.Repeat("x", 60)
	for i := 0; i < 1500; i++ {
		tups = append(tups, value.Tuple{value.NewInt(int64(i)), value.NewText(filler)})
	}
	mustBatch(t, db, "sparse", tups)
	if _, err := db.Exec(`DELETE FROM sparse WHERE id >= 30`); err != nil {
		t.Fatal(err)
	}
	if analyze {
		if err := db.Analyze(); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func mustBatch(t *testing.T, db *DB, table string, tups []value.Tuple) {
	t.Helper()
	if err := db.InsertBatch(table, tups); err != nil {
		t.Fatalf("load %s: %v", table, err)
	}
}

// planCase is one block of a .test file: leading # comments, the query
// (possibly multi-line), "----", then the expected EXPLAIN lines.
type planCase struct {
	comments []string
	query    string
	want     []string
}

func parsePlanFile(t *testing.T, path string) []planCase {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cases []planCase
	lines := strings.Split(string(raw), "\n")
	i := 0
	for i < len(lines) {
		for i < len(lines) && strings.TrimSpace(lines[i]) == "" {
			i++
		}
		if i >= len(lines) {
			break
		}
		var c planCase
		for i < len(lines) && strings.HasPrefix(lines[i], "#") {
			c.comments = append(c.comments, lines[i])
			i++
		}
		var q []string
		for i < len(lines) && strings.TrimSpace(lines[i]) != "----" {
			if strings.TrimSpace(lines[i]) == "" {
				t.Fatalf("%s: query block ended without ---- separator", path)
			}
			q = append(q, lines[i])
			i++
		}
		if i >= len(lines) {
			t.Fatalf("%s: missing ---- separator after query %q", path, strings.Join(q, " "))
		}
		i++ // skip ----
		c.query = strings.Join(q, "\n")
		for i < len(lines) && strings.TrimSpace(lines[i]) != "" {
			c.want = append(c.want, lines[i])
			i++
		}
		cases = append(cases, c)
	}
	return cases
}

func writePlanFile(t *testing.T, path string, cases []planCase) {
	t.Helper()
	var b strings.Builder
	for i, c := range cases {
		if i > 0 {
			b.WriteString("\n")
		}
		for _, cm := range c.comments {
			b.WriteString(cm + "\n")
		}
		b.WriteString(c.query + "\n----\n")
		for _, w := range c.want {
			b.WriteString(w + "\n")
		}
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func explainLines(t *testing.T, db *DB, query string) []string {
	t.Helper()
	out, err := db.Explain(query, ExecOpts{})
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", query, err)
	}
	return strings.Split(strings.TrimRight(out, "\n"), "\n")
}

func TestGoldenPlans(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "plans", "*.test"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no golden plan files under testdata/plans")
	}
	db := newPlanFixture(t, true)
	total := 0
	for _, f := range files {
		cases := parsePlanFile(t, f)
		total += len(cases)
		if *updateGoldens {
			for i := range cases {
				cases[i].want = explainLines(t, db, cases[i].query)
			}
			writePlanFile(t, f, cases)
			continue
		}
		for _, c := range cases {
			got := explainLines(t, db, c.query)
			if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
				t.Errorf("%s: plan mismatch for:\n%s\ngot:\n  %s\nwant:\n  %s",
					f, c.query, strings.Join(got, "\n  "), strings.Join(c.want, "\n  "))
			}
		}
	}
	if total < 20 {
		t.Errorf("golden corpus has %d cases, want >= 20", total)
	}
}

// TestStatsChangePlans pins the planner decisions that exist only
// because of statistics: the same queries must plan differently before
// and after ANALYZE.
func TestStatsChangePlans(t *testing.T) {
	db := newPlanFixture(t, false)
	type flip struct {
		name, query         string
		before, after       string // required substrings
		notBefore, notAfter string // forbidden substrings ("" skips)
	}
	flips := []flip{
		{
			name:   "skewed equality abandons the index",
			query:  `SELECT id FROM big WHERE cat = 'common'`,
			before: "index idx_big_cat", after: "sequential",
			notAfter: "idx_big_cat",
		},
		{
			name:   "range spanning the whole domain abandons the index",
			query:  `SELECT id FROM big WHERE v >= 10 AND v < 990`,
			before: "index idx_big_v", after: "sequential",
			notAfter: "idx_big_v",
		},
		{
			name:   "constant column abandons the compound index",
			query:  `SELECT val FROM ev WHERE db = 'main'`,
			before: "index idx_ev", after: "sequential",
			notAfter: "idx_ev",
		},
		{
			name:   "join order follows the measured rare-value count",
			query:  `SELECT b.v, s.name FROM big b, small s WHERE s.id = b.id AND b.cat = 'rare0'`,
			before: "scan small as s", after: "scan big as b",
			notBefore: "scan big as b", notAfter: "scan small as s",
		},
	}
	check := func(phase string, f flip, mustHave, mustNot string) {
		plan, err := db.Explain(f.query, ExecOpts{})
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if !strings.Contains(plan, mustHave) {
			t.Errorf("%s (%s): plan missing %q:\n%s", f.name, phase, mustHave, plan)
		}
		if mustNot != "" && strings.Contains(plan, mustNot) {
			t.Errorf("%s (%s): plan must not contain %q:\n%s", f.name, phase, mustNot, plan)
		}
	}
	for _, f := range flips {
		check("before ANALYZE", f, f.before, f.notBefore)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	for _, f := range flips {
		check("after ANALYZE", f, f.after, f.notAfter)
	}
}

var estActualRE = regexp.MustCompile(`\(est rows=(\d+)\) \(actual rows=(\d+) time=`)

// TestEstimatesWithinBounds runs EXPLAIN ANALYZE over the stats-driven
// plans and asserts every operator's estimated row count is within 10x
// of what actually flowed (the acceptance bound for the cost model).
func TestEstimatesWithinBounds(t *testing.T) {
	db := newPlanFixture(t, true)
	queries := []string{
		`SELECT id FROM big WHERE cat = 'common'`,
		`SELECT id FROM big WHERE cat = 'rare3'`,
		`SELECT id FROM big WHERE v >= 10 AND v < 990`,
		`SELECT val FROM ev WHERE db = 'main'`,
		`SELECT b.v, s.name FROM big b, small s WHERE s.id = b.id AND b.cat = 'rare0'`,
		`SELECT pad FROM big WHERE CONTAINS(pad, '1')`,
	}
	for _, q := range queries {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		qt := obs.NewQueryTrace(true)
		if _, err := db.QueryStmtOptsContext(t.Context(), stmt.(*Select), ExecOpts{Trace: qt}); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		report := qt.Render(true)
		pairs := estActualRE.FindAllStringSubmatch(report, -1)
		if len(pairs) == 0 {
			t.Errorf("%s: no est/actual pairs in report:\n%s", q, report)
		}
		for _, m := range pairs {
			est, _ := strconv.ParseFloat(m[1], 64)
			actual, _ := strconv.ParseFloat(m[2], 64)
			lo, hi := actual/10, actual*10
			if actual == 0 {
				lo, hi = 0, 10
			}
			if est < lo || est > hi {
				t.Errorf("%s: est rows=%v outside 10x of actual=%v:\n%s", q, est, actual, report)
			}
		}
	}
}
