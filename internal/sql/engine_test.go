package sql

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"xomatiq/internal/obs"
	"xomatiq/internal/value"
)

func openDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(filepath.Join(t.TempDir(), "t.db"), Options{PoolPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func mustExec(t *testing.T, db *DB, src string) Result {
	t.Helper()
	res, err := db.Exec(src)
	if err != nil {
		t.Fatalf("Exec(%q): %v", src, err)
	}
	return res
}

func mustQuery(t *testing.T, db *DB, src string) *Rows {
	t.Helper()
	rows, err := db.Query(src)
	if err != nil {
		t.Fatalf("Query(%q): %v", src, err)
	}
	return rows
}

// viewQuery runs a SELECT against one view (nil: the published
// snapshot).
func viewQuery(t *testing.T, db *DB, view *Snap, src string) *Rows {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryStmtOptsContext(context.Background(), stmt.(*Select), ExecOpts{Snap: view})
	if err != nil {
		t.Fatalf("Query(%q): %v", src, err)
	}
	return rows
}

// batchQuery runs a SELECT through the writer's BatchView: it sees an
// open batch, which the published snapshot does not.
func batchQuery(t *testing.T, db *DB, src string) *Rows {
	t.Helper()
	return viewQuery(t, db, db.BatchView(), src)
}

// rowStrings renders result rows for compact comparison.
func rowStrings(r *Rows) []string {
	var out []string
	for _, tup := range r.Rows {
		parts := make([]string, len(tup))
		for i, v := range tup {
			parts[i] = v.String()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

func seedEnzymes(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE enzymes (ec TEXT, name TEXT, cofactor TEXT, score FLOAT)`)
	rows := []string{
		`('1.14.17.3', 'Peptidylglycine monooxygenase', 'Copper', 8.5)`,
		`('1.1.1.1', 'Alcohol dehydrogenase', 'Zinc', 9.1)`,
		`('2.7.7.7', 'DNA polymerase', 'Magnesium', 7.0)`,
		`('1.2.3.4', 'Oxalate oxidase', 'Copper', 5.5)`,
		`('3.1.1.1', 'Carboxylesterase', NULL, 6.25)`,
	}
	mustExec(t, db, `INSERT INTO enzymes VALUES `+strings.Join(rows, ", "))
}

func TestCreateInsertSelect(t *testing.T) {
	db := openDB(t)
	seedEnzymes(t, db)
	r := mustQuery(t, db, `SELECT ec, name FROM enzymes WHERE cofactor = 'Copper' ORDER BY ec`)
	want := []string{"1.14.17.3|Peptidylglycine monooxygenase", "1.2.3.4|Oxalate oxidase"}
	if got := rowStrings(r); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("got %v, want %v", got, want)
	}
	if len(r.Columns) != 2 || r.Columns[0] != "ec" {
		t.Errorf("columns = %v", r.Columns)
	}
}

func TestSelectStar(t *testing.T) {
	db := openDB(t)
	seedEnzymes(t, db)
	r := mustQuery(t, db, `SELECT * FROM enzymes WHERE ec = '1.1.1.1'`)
	if len(r.Rows) != 1 || len(r.Rows[0]) != 4 {
		t.Fatalf("star select: %v", rowStrings(r))
	}
	if r.Columns[3] != "score" {
		t.Errorf("columns = %v", r.Columns)
	}
}

func TestInsertColumnSubset(t *testing.T) {
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE t (a INT, b TEXT, c FLOAT)`)
	mustExec(t, db, `INSERT INTO t (c, a) VALUES (1.5, 7)`)
	r := mustQuery(t, db, `SELECT a, b, c FROM t`)
	if got := rowStrings(r)[0]; got != "7|NULL|1.5" {
		t.Errorf("got %q", got)
	}
}

func TestTypeCoercion(t *testing.T) {
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE t (n INT, f FLOAT, s TEXT)`)
	// Text-to-number and number-to-text coercions.
	mustExec(t, db, `INSERT INTO t VALUES ('42', '3.5', 99)`)
	r := mustQuery(t, db, `SELECT n, f, s FROM t`)
	if got := rowStrings(r)[0]; got != "42|3.5|99" {
		t.Errorf("got %q", got)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES ('notanumber', 1, 'x')`); err == nil {
		t.Error("non-numeric text into INT should fail")
	}
}

func TestDeleteUpdate(t *testing.T) {
	db := openDB(t)
	seedEnzymes(t, db)
	res := mustExec(t, db, `DELETE FROM enzymes WHERE score < 6`)
	if res.RowsAffected != 1 {
		t.Errorf("deleted %d, want 1", res.RowsAffected)
	}
	res = mustExec(t, db, `UPDATE enzymes SET score = score + 1 WHERE cofactor = 'Copper'`)
	if res.RowsAffected != 1 {
		t.Errorf("updated %d, want 1", res.RowsAffected)
	}
	r := mustQuery(t, db, `SELECT score FROM enzymes WHERE ec = '1.14.17.3'`)
	if rowStrings(r)[0] != "9.5" {
		t.Errorf("score = %v", rowStrings(r))
	}
}

func TestOrderLimitOffset(t *testing.T) {
	db := openDB(t)
	seedEnzymes(t, db)
	r := mustQuery(t, db, `SELECT name FROM enzymes ORDER BY score DESC LIMIT 2`)
	want := []string{"Alcohol dehydrogenase", "Peptidylglycine monooxygenase"}
	if got := rowStrings(r); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("got %v", got)
	}
	r = mustQuery(t, db, `SELECT name FROM enzymes ORDER BY score DESC LIMIT 2 OFFSET 2`)
	if len(r.Rows) != 2 || rowStrings(r)[0] != "DNA polymerase" {
		t.Errorf("offset page: %v", rowStrings(r))
	}
	r = mustQuery(t, db, `SELECT name FROM enzymes ORDER BY score LIMIT 100 OFFSET 99`)
	if len(r.Rows) != 0 {
		t.Errorf("offset past end: %v", rowStrings(r))
	}
}

func TestOrderByAlias(t *testing.T) {
	db := openDB(t)
	seedEnzymes(t, db)
	r := mustQuery(t, db, `SELECT LENGTH(name) AS n, name FROM enzymes ORDER BY n, name LIMIT 1`)
	if rowStrings(r)[0] != "14|DNA polymerase" {
		t.Errorf("got %v", rowStrings(r))
	}
}

func TestDistinct(t *testing.T) {
	db := openDB(t)
	seedEnzymes(t, db)
	r := mustQuery(t, db, `SELECT DISTINCT cofactor FROM enzymes WHERE cofactor IS NOT NULL ORDER BY cofactor`)
	want := []string{"Copper", "Magnesium", "Zinc"}
	if got := rowStrings(r); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("got %v", got)
	}
}

func TestAggregates(t *testing.T) {
	db := openDB(t)
	seedEnzymes(t, db)
	r := mustQuery(t, db, `SELECT COUNT(*), COUNT(cofactor), MIN(score), MAX(score), SUM(score) FROM enzymes`)
	if got := rowStrings(r)[0]; got != "5|4|5.5|9.1|36.35" {
		t.Errorf("aggregates = %q", got)
	}
	r = mustQuery(t, db, `SELECT AVG(score) FROM enzymes`)
	if avg := r.Rows[0][0].Float(); avg < 7.2699 || avg > 7.2701 {
		t.Errorf("AVG = %v", avg)
	}
	// Aggregate over empty input yields one row.
	r = mustQuery(t, db, `SELECT COUNT(*), SUM(score) FROM enzymes WHERE ec = 'none'`)
	if got := rowStrings(r)[0]; got != "0|NULL" {
		t.Errorf("empty aggregates = %q", got)
	}
}

func TestGroupByHaving(t *testing.T) {
	db := openDB(t)
	seedEnzymes(t, db)
	r := mustQuery(t, db, `SELECT cofactor, COUNT(*) AS n, AVG(score) FROM enzymes
	                        WHERE cofactor IS NOT NULL GROUP BY cofactor HAVING COUNT(*) >= 2`)
	if len(r.Rows) != 1 || rowStrings(r)[0] != "Copper|2|7" {
		t.Errorf("group by = %v", rowStrings(r))
	}
	r = mustQuery(t, db, `SELECT cofactor, COUNT(*) FROM enzymes GROUP BY cofactor ORDER BY COUNT(*) DESC, cofactor`)
	if len(r.Rows) != 4 {
		t.Errorf("groups = %v", rowStrings(r))
	}
	if !strings.HasPrefix(rowStrings(r)[0], "Copper|2") {
		t.Errorf("order by aggregate broken: %v", rowStrings(r))
	}
}

func TestJoinHash(t *testing.T) {
	db := openDB(t)
	seedEnzymes(t, db)
	mustExec(t, db, `CREATE TABLE refs (ec TEXT, db_name TEXT, acc TEXT)`)
	mustExec(t, db, `INSERT INTO refs VALUES
		('1.14.17.3', 'SWISSPROT', 'P10731'),
		('1.14.17.3', 'SWISSPROT', 'P19021'),
		('1.1.1.1', 'PROSITE', 'PDOC00058'),
		('9.9.9.9', 'SWISSPROT', 'PXXXXX')`)
	r := mustQuery(t, db, `SELECT e.name, r.acc FROM enzymes e JOIN refs r ON e.ec = r.ec
	                        WHERE r.db_name = 'SWISSPROT' ORDER BY r.acc`)
	want := []string{
		"Peptidylglycine monooxygenase|P10731",
		"Peptidylglycine monooxygenase|P19021",
	}
	if got := rowStrings(r); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("join = %v", got)
	}
}

func TestJoinWithIndex(t *testing.T) {
	db := openDB(t)
	seedEnzymes(t, db)
	mustExec(t, db, `CREATE TABLE refs (ec TEXT, acc TEXT)`)
	for i := 0; i < 50; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO refs VALUES ('1.1.1.1', 'A%03d')`, i))
	}
	mustExec(t, db, `INSERT INTO refs VALUES ('2.7.7.7', 'B000')`)
	mustExec(t, db, `CREATE INDEX idx_refs_ec ON refs (ec)`)
	r := mustQuery(t, db, `SELECT e.name, r.acc FROM enzymes e JOIN refs r ON r.ec = e.ec WHERE e.ec = '2.7.7.7'`)
	if len(r.Rows) != 1 || rowStrings(r)[0] != "DNA polymerase|B000" {
		t.Errorf("index join = %v", rowStrings(r))
	}
	// All matches through the index path.
	r = mustQuery(t, db, `SELECT COUNT(*) FROM enzymes e JOIN refs r ON r.ec = e.ec`)
	if rowStrings(r)[0] != "51" {
		t.Errorf("count = %v", rowStrings(r))
	}
}

func TestCommaJoinWithWhere(t *testing.T) {
	db := openDB(t)
	seedEnzymes(t, db)
	mustExec(t, db, `CREATE TABLE refs (ec TEXT, acc TEXT)`)
	mustExec(t, db, `INSERT INTO refs VALUES ('1.1.1.1', 'X1'), ('1.2.3.4', 'X2')`)
	r := mustQuery(t, db, `SELECT e.name, r.acc FROM enzymes e, refs r WHERE e.ec = r.ec ORDER BY r.acc`)
	if len(r.Rows) != 2 || !strings.HasPrefix(rowStrings(r)[0], "Alcohol") {
		t.Errorf("comma join = %v", rowStrings(r))
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE a (id INT, x TEXT)`)
	mustExec(t, db, `CREATE TABLE b (aid INT, cid INT)`)
	mustExec(t, db, `CREATE TABLE c (id INT, y TEXT)`)
	mustExec(t, db, `INSERT INTO a VALUES (1, 'one'), (2, 'two')`)
	mustExec(t, db, `INSERT INTO b VALUES (1, 10), (2, 20), (2, 10)`)
	mustExec(t, db, `INSERT INTO c VALUES (10, 'ten'), (20, 'twenty')`)
	r := mustQuery(t, db, `SELECT a.x, c.y FROM a JOIN b ON a.id = b.aid JOIN c ON b.cid = c.id ORDER BY a.x, c.y`)
	want := []string{"one|ten", "two|ten", "two|twenty"}
	if got := rowStrings(r); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("3-way join = %v", got)
	}
}

func TestIndexScanEqualityAndRange(t *testing.T) {
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE vals (path_id INT, v TEXT)`)
	for i := 0; i < 500; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO vals VALUES (%d, 'val-%03d')`, i%10, i))
	}
	mustExec(t, db, `CREATE INDEX idx_v ON vals (path_id, v)`)
	r := mustQuery(t, db, `SELECT COUNT(*) FROM vals WHERE path_id = 3`)
	if rowStrings(r)[0] != "50" {
		t.Errorf("equality via index = %v", rowStrings(r))
	}
	r = mustQuery(t, db, `SELECT COUNT(*) FROM vals WHERE path_id = 3 AND v >= 'val-100' AND v < 'val-200'`)
	if rowStrings(r)[0] != "10" {
		t.Errorf("range via index = %v", rowStrings(r))
	}
	// Results identical to a seq scan (drop index, re-ask).
	mustExec(t, db, `DROP INDEX idx_v`)
	r2 := mustQuery(t, db, `SELECT COUNT(*) FROM vals WHERE path_id = 3 AND v >= 'val-100' AND v < 'val-200'`)
	if rowStrings(r2)[0] != "10" {
		t.Errorf("seq scan disagrees: %v", rowStrings(r2))
	}
}

// TestExplainMatchesQueryPlan: Explain plans what a query with the same
// ExecOpts runs, so its text is the plan lines of that query's trace. By
// default both read the published snapshot; only the BatchView shows the
// writer's open batch.
func TestExplainMatchesQueryPlan(t *testing.T) {
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE kw (token TEXT, doc INT)`)
	for i := 0; i < 100; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO kw VALUES ('tok%d', %d)`, i%7, i))
	}
	mustExec(t, db, `CREATE INDEX idx_kw ON kw (token)`)
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	defer db.Rollback()
	mustExec(t, db, `INSERT INTO kw VALUES ('tok3', 100)`)
	for _, c := range []struct {
		q    string
		o    ExecOpts
		want string // substring of the plan
		rows int
	}{
		{`SELECT doc FROM kw WHERE token = 'tok3'`, ExecOpts{}, "index idx_kw", 14},
		{`SELECT doc FROM kw WHERE token = 'tok3'`, ExecOpts{Snap: db.BatchView()}, "index idx_kw", 15},
		{`SELECT doc FROM kw`, ExecOpts{}, "(est rows=100)", 100},
		{`SELECT doc FROM kw`, ExecOpts{Snap: db.BatchView()}, "(est rows=101)", 101},
	} {
		plan, err := db.Explain(c.q, c.o)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, c.want) {
			t.Errorf("%s: plan lacks %q:\n%s", c.q, c.want, plan)
		}
		stmt, err := Parse(c.q)
		if err != nil {
			t.Fatal(err)
		}
		o := c.o
		o.Trace = obs.NewQueryTrace(false)
		rows, err := db.QueryStmtOptsContext(context.Background(), stmt.(*Select), o)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Rows) != c.rows {
			t.Errorf("%s: %d rows, want %d", c.q, len(rows.Rows), c.rows)
		}
		if got := o.Trace.Text(); got != plan {
			t.Errorf("%s: traced run differs from Explain:\n%s\nwant:\n%s", c.q, got, plan)
		}
	}
}

// TestTableNamesCaseInsensitive: every view resolves table names the way
// the catalog stores them, whatever the case of the query.
func TestTableNamesCaseInsensitive(t *testing.T) {
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE Items (a INT)`)
	mustExec(t, db, `INSERT INTO items VALUES (1)`)
	pinned := db.AcquireSnapshot()
	defer db.ReleaseSnapshot(pinned)
	views := []struct {
		name string
		snap *Snap
	}{{"published", nil}, {"pinned", pinned}, {"batch", db.BatchView()}}
	for _, v := range views {
		for _, q := range []string{`SELECT a FROM ITEMS`, `SELECT a FROM Items`, `SELECT a FROM items`} {
			if got := rowStrings(viewQuery(t, db, v.snap, q)); len(got) != 1 || got[0] != "1" {
				t.Errorf("%s %s = %v", v.name, q, got)
			}
		}
	}
}

// TestBatchViewSeesOpenBatch: inside an open batch the published
// snapshot keeps answering with the last commit, and only the writer's
// BatchView sees the uncommitted rows.
func TestBatchViewSeesOpenBatch(t *testing.T) {
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE t (a INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `INSERT INTO t VALUES (2)`)
	if got := rowStrings(mustQuery(t, db, `SELECT COUNT(*) FROM t`)); got[0] != "1" {
		t.Errorf("published snapshot inside batch = %v, want 1", got)
	}
	if got := rowStrings(batchQuery(t, db, `SELECT COUNT(*) FROM t`)); got[0] != "2" {
		t.Errorf("batch view inside batch = %v, want 2", got)
	}
	if err := db.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := rowStrings(batchQuery(t, db, `SELECT COUNT(*) FROM t`)); got[0] != "1" {
		t.Errorf("batch view after rollback = %v, want 1", got)
	}
}

func TestIndexMaintenanceAcrossDML(t *testing.T) {
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE t (k TEXT, n INT)`)
	mustExec(t, db, `CREATE INDEX idx_t ON t (k)`)
	mustExec(t, db, `INSERT INTO t VALUES ('a', 1), ('a', 2), ('b', 3)`)
	mustExec(t, db, `DELETE FROM t WHERE n = 2`)
	mustExec(t, db, `UPDATE t SET k = 'c' WHERE n = 3`)
	r := mustQuery(t, db, `SELECT n FROM t WHERE k = 'a'`)
	if len(r.Rows) != 1 || rowStrings(r)[0] != "1" {
		t.Errorf("after delete: %v", rowStrings(r))
	}
	r = mustQuery(t, db, `SELECT n FROM t WHERE k = 'b'`)
	if len(r.Rows) != 0 {
		t.Errorf("stale index entry: %v", rowStrings(r))
	}
	r = mustQuery(t, db, `SELECT n FROM t WHERE k = 'c'`)
	if len(r.Rows) != 1 || rowStrings(r)[0] != "3" {
		t.Errorf("after update: %v", rowStrings(r))
	}
}

func TestLikeAndContains(t *testing.T) {
	db := openDB(t)
	seedEnzymes(t, db)
	r := mustQuery(t, db, `SELECT ec FROM enzymes WHERE name LIKE '%oxidase'`)
	if len(r.Rows) != 1 || rowStrings(r)[0] != "1.2.3.4" {
		t.Errorf("LIKE = %v", rowStrings(r))
	}
	r = mustQuery(t, db, `SELECT ec FROM enzymes WHERE CONTAINS(name, 'polymerase')`)
	if len(r.Rows) != 1 || rowStrings(r)[0] != "2.7.7.7" {
		t.Errorf("CONTAINS = %v", rowStrings(r))
	}
}

func TestNumericTextComparison(t *testing.T) {
	// The shredding schema stores some numbers as text; comparisons must
	// be numeric when one side is a number (paper §2.2).
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE ann (name TEXT, len TEXT)`)
	mustExec(t, db, `INSERT INTO ann VALUES ('seq1', '900'), ('seq2', '1000'), ('seq3', '20')`)
	r := mustQuery(t, db, `SELECT name FROM ann WHERE len > 500 ORDER BY name`)
	want := []string{"seq1", "seq2"}
	if got := rowStrings(r); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("numeric-over-text = %v", got)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.db")
	db, err := Open(path, Options{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (a INT, b TEXT)`)
	mustExec(t, db, `CREATE INDEX idx_a ON t (a)`)
	for i := 0; i < 300; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'row-%d')`, i, i))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, Options{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Recovered() {
		t.Error("clean close should not trigger recovery")
	}
	r := mustQuery(t, db2, `SELECT b FROM t WHERE a = 123`)
	if len(r.Rows) != 1 || rowStrings(r)[0] != "row-123" {
		t.Errorf("reopened query = %v", rowStrings(r))
	}
	if ts := db2.Stats().Tables; len(ts) != 1 || ts[0].Name != "t" || ts[0].Rows != 300 {
		t.Errorf("Stats().Tables = %+v", ts)
	}
}

// TestOpenRefusesHashIndexRow: a catalog index row with its hash flag
// set, as files from when hash indexes existed may carry, is refused at
// Open with an error that names the index.
func TestOpenRefusesHashIndexRow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.db")
	db, err := Open(path, Options{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE kw (token TEXT)`)
	mustExec(t, db, `CREATE INDEX idx_kw ON kw (token)`)
	db.mu.Lock()
	ix := db.cat.indexes["idx_kw"]
	row, err := value.DecodeTuple(encodeIndexRow(ix))
	if err == nil {
		row[4] = value.NewBool(true)
		_, err = db.catH.Update(0, ix.rid, row.Encode(nil))
	}
	db.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(path, Options{PoolPages: 256})
	if err == nil {
		db.Close()
		t.Fatal("Open accepted a hash index row")
	}
	if !strings.Contains(err.Error(), `"idx_kw"`) {
		t.Errorf("error does not name the index: %v", err)
	}
}

func TestBatchAtomicity(t *testing.T) {
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE t (a INT)`)
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := db.Begin(); err == nil {
		t.Error("nested Begin should fail")
	}
	for i := 0; i < 100; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	if err := db.Checkpoint(); err == nil {
		t.Error("checkpoint inside batch should fail")
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err == nil {
		t.Error("Commit without Begin should fail")
	}
	r := mustQuery(t, db, `SELECT COUNT(*) FROM t`)
	if rowStrings(r)[0] != "100" {
		t.Errorf("batch rows = %v", rowStrings(r))
	}
}

func TestDDLErrors(t *testing.T) {
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE t (a INT)`)
	if _, err := db.Exec(`CREATE TABLE t (a INT)`); err == nil {
		t.Error("duplicate table should fail")
	}
	mustExec(t, db, `CREATE TABLE IF NOT EXISTS t (a INT)`)
	if _, err := db.Exec(`CREATE TABLE u (a INT, A TEXT)`); err == nil {
		t.Error("duplicate column should fail")
	}
	if _, err := db.Exec(`CREATE INDEX i ON missing (a)`); err == nil {
		t.Error("index on missing table should fail")
	}
	if _, err := db.Exec(`CREATE INDEX i ON t (missing)`); err == nil {
		t.Error("index on missing column should fail")
	}
	if _, err := db.Exec(`SELECT * FROM missing`); err == nil {
		t.Error("select from missing table should fail")
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1, 2)`); err == nil {
		t.Error("wrong arity insert should fail")
	}
	mustExec(t, db, `DROP TABLE t`)
	if _, err := db.Exec(`DROP TABLE t`); err == nil {
		t.Error("drop of missing table should fail")
	}
	mustExec(t, db, `DROP TABLE IF EXISTS t`)
	mustExec(t, db, `DROP INDEX IF EXISTS nothing`)
}

func TestInsertBatchFastPath(t *testing.T) {
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE t (a INT, b TEXT)`)
	if err := db.InsertBatch("t", []value.Tuple{{value.NewInt(1), value.NewText("x")}}); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertBatch("t", []value.Tuple{{value.NewInt(1)}}); err == nil {
		t.Error("wrong arity InsertBatch should fail")
	}
	r := mustQuery(t, db, `SELECT b FROM t WHERE a = 1`)
	if len(r.Rows) != 1 || rowStrings(r)[0] != "x" {
		t.Errorf("fast path row = %v", rowStrings(r))
	}
}

func TestTablesListing(t *testing.T) {
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE alpha (a INT)`)
	mustExec(t, db, `CREATE TABLE beta (b INT)`)
	if ts := db.Stats().Tables; len(ts) != 2 || ts[0].Name != "alpha" || ts[1].Name != "beta" {
		t.Errorf("Stats().Tables = %+v", ts)
	}
}
