package sql

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func TestStats(t *testing.T) {
	db := openDB(t)
	seedEnzymes(t, db)
	mustExec(t, db, `CREATE INDEX idx_ec ON enzymes (ec)`)
	s := db.Stats()
	if s.FilePages < 2 {
		t.Errorf("FilePages = %d", s.FilePages)
	}
	if len(s.Tables) != 1 || s.Tables[0].Name != "enzymes" || s.Tables[0].Rows != 5 {
		t.Errorf("Tables = %+v", s.Tables)
	}
	if len(s.Tables[0].Indexes) != 1 || !strings.Contains(s.Tables[0].Indexes[0], "idx_ec") {
		t.Errorf("Indexes = %v", s.Tables[0].Indexes)
	}
}

func TestCompactTo(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(filepath.Join(dir, "src.db"), Options{PoolPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Create churn: a dropped table leaks pages; deletes leave holes.
	mustExec(t, db, `CREATE TABLE keep (a INT, b TEXT)`)
	mustExec(t, db, `CREATE INDEX idx_keep ON keep (a)`)
	mustExec(t, db, `CREATE TABLE droppable (x TEXT)`)
	for i := 0; i < 500; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO keep VALUES (%d, 'row-%d')`, i, i))
		mustExec(t, db, fmt.Sprintf(`INSERT INTO droppable VALUES ('junk-%d-%s')`, i, strings.Repeat("x", 200)))
	}
	mustExec(t, db, `DELETE FROM keep WHERE a >= 250`)
	mustExec(t, db, `DROP TABLE droppable`)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := db.Stats().FilePages

	dst := filepath.Join(dir, "compacted.db")
	if err := db.CompactTo(dst, Options{PoolPages: 512}); err != nil {
		t.Fatal(err)
	}
	out, err := Open(dst, Options{PoolPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	after := out.Stats().FilePages
	if after >= before {
		t.Errorf("compaction did not shrink: %d -> %d pages", before, after)
	}
	// Contents and indexes intact.
	r := mustQuery(t, out, `SELECT COUNT(*) FROM keep`)
	if rowStrings(r)[0] != "250" {
		t.Errorf("row count after compact = %v", rowStrings(r))
	}
	r = mustQuery(t, out, `SELECT b FROM keep WHERE a = 123`)
	if len(r.Rows) != 1 || rowStrings(r)[0] != "row-123" {
		t.Errorf("indexed lookup after compact = %v", rowStrings(r))
	}
	if _, err := out.Query(`SELECT * FROM droppable`); err == nil {
		t.Error("dropped table resurrected")
	}
}

func TestExplain(t *testing.T) {
	db := openDB(t)
	seedEnzymes(t, db)
	mustExec(t, db, `CREATE INDEX idx_ec ON enzymes (ec)`)
	mustExec(t, db, `CREATE TABLE refs (ec TEXT, acc TEXT)`)
	mustExec(t, db, `INSERT INTO refs VALUES ('1.1.1.1', 'X')`)

	plan, err := db.Explain(`SELECT name FROM enzymes WHERE ec = '1.1.1.1'`, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "index idx_ec") {
		t.Errorf("plan should use idx_ec:\n%s", plan)
	}
	plan, err = db.Explain(`SELECT name FROM enzymes WHERE score > 5`, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "sequential") {
		t.Errorf("plan should be sequential:\n%s", plan)
	}
	plan, err = db.Explain(`SELECT e.name FROM refs r, enzymes e WHERE r.ec = e.ec`, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "index nested loop via idx_ec") {
		t.Errorf("plan should use index join:\n%s", plan)
	}
	// SELECT * keeps the FROM order, so enzymes drives and refs builds.
	plan, err = db.Explain(`SELECT * FROM enzymes e, refs r WHERE e.ec = r.ec`, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "hash join") {
		t.Errorf("plan should hash join (refs has no index):\n%s", plan)
	}
	// The filter line prints the predicate the query runs, NOT included.
	q := `SELECT name FROM enzymes WHERE NOT (score >= 6 AND score <= 9)`
	if got := rowStrings(mustQuery(t, db, q)); len(got) != 2 {
		t.Errorf("%s = %v, want the two scores outside [6, 9]", q, got)
	}
	if plan, err = db.Explain(q, ExecOpts{}); err != nil || !strings.Contains(plan, "filter NOT ((score >= 6) AND (score <= 9))") {
		t.Errorf("plan should filter NOT ((score >= 6) AND (score <= 9)): %v\n%s", err, plan)
	}
	if _, err := db.Explain(`DELETE FROM refs`, ExecOpts{}); err == nil {
		t.Error("Explain of non-SELECT should fail")
	}
	if _, err := db.Explain(`SELECT * FROM missing`, ExecOpts{}); err == nil {
		t.Error("Explain of missing table should fail")
	}
}
