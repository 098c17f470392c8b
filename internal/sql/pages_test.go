package sql

import (
	"context"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xomatiq/internal/storage/page"
	"xomatiq/internal/value"
)

// legacyRecord hand-encodes a tuple the way files written before the
// compact wire format hold it: INT and BOOL as a kind byte and eight
// big-endian bytes. The engine itself can no longer produce this form.
func legacyRecord(tup value.Tuple) []byte {
	rec := binary.AppendUvarint(nil, uint64(len(tup)))
	for _, v := range tup {
		switch v.Kind() {
		case value.KindInt:
			rec = binary.BigEndian.AppendUint64(append(rec, byte(value.KindInt)), uint64(v.Int()))
		case value.KindBool:
			var b uint64
			if v.Bool() {
				b = 1
			}
			rec = binary.BigEndian.AppendUint64(append(rec, byte(value.KindBool)), b)
		default:
			rec = v.Encode(rec)
		}
	}
	return rec
}

func mustCheck(t *testing.T, db *DB, when string) {
	t.Helper()
	if err := db.CheckConsistency(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// TestLegacyRecordsBesideCompact puts fixed-width records, as a file from
// before the compact format holds them, into the same heap page as
// records the engine writes now, and runs everything that parses heap
// records over the mix: chunk scan, index lookup and range, a bulk index
// rebuild (keys cut straight from the wire bytes), DELETE and re-INSERT
// of the same ids, ANALYZE, the consistency check, recovery and a reopen.
func TestLegacyRecordsBesideCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mixed.db")
	db, err := Open(path, Options{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE m (id INT, name TEXT, ok BOOL, score FLOAT, big INT)`)
	mustExec(t, db, `CREATE INDEX idx_m ON m (id, ok)`)
	row := func(i int) value.Tuple {
		return value.Tuple{
			value.NewInt(int64(i - 20)), value.NewText(fmt.Sprintf("n%03d", i)), value.NewBool(i%3 == 0),
			value.NewFloat(float64(i) / 4), value.NewInt(int64(i) << 40),
		}
	}
	// Even rows arrive in the old form, through the heap and index the
	// way an INSERT would put them; odd rows through InsertBatch.
	tbl := db.cat.tables["m"]
	for i := 0; i < 40; i++ {
		if i%2 == 1 {
			if err := db.InsertBatch("m", []value.Tuple{row(i)}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := db.Begin(); err != nil {
			t.Fatal(err)
		}
		rid, err := tbl.Heap.Insert(db.batchTxn, legacyRecord(row(i)))
		if err == nil {
			err = db.indexTuple(tbl, row(i), rid)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Heap.NumPages() != 1 {
		t.Fatalf("the mix spans %d pages; the test wants both forms in one", tbl.Heap.NumPages())
	}
	if legacy, compact := len(legacyRecord(row(0))), len(row(0).Encode(nil)); legacy <= compact {
		t.Fatalf("legacy record is %d bytes, compact %d: the hand encoding is not the old form", legacy, compact)
	}

	verify := func(when string, changed bool) {
		t.Helper()
		mustCheck(t, db, when)
		var want []string
		for i := 0; i < 40; i++ {
			r := row(i)
			name := r[1].Text()
			if changed && i%5 == 0 {
				name = "renamed"
			}
			want = append(want, fmt.Sprintf("%d|%s|%s|%s|%d", r[0].Int(), name, r[2], r[3], r[4].Int()))
		}
		if got := rowStrings(mustQuery(t, db, `SELECT id, name, ok, score, big FROM m ORDER BY id`)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: scan\n got %v\nwant %v", when, got, want)
		}
		// One legacy row and one compact row through the index.
		for _, i := range []int{6, 7} {
			q := fmt.Sprintf(`SELECT big FROM m WHERE id = %d`, i-20)
			if plan, err := db.Explain(q, ExecOpts{}); err != nil || !strings.Contains(plan, "index idx_m") {
				t.Fatalf("%s: %s does not use the index: %v\n%s", when, q, err, plan)
			}
			if got := rowStrings(mustQuery(t, db, q)); len(got) != 1 || got[0] != fmt.Sprint(int64(i)<<40) {
				t.Fatalf("%s: %s = %v", when, q, got)
			}
		}
		if got := mustQuery(t, db, `SELECT id FROM m WHERE id >= -5 AND id < 5`); len(got.Rows) != 10 {
			t.Fatalf("%s: index range over negative and positive ids finds %d rows, want 10", when, len(got.Rows))
		}
		if got := mustQuery(t, db, `SELECT COUNT(*) FROM m WHERE ok = TRUE`); got.Rows[0][0].Int() != 14 {
			t.Fatalf("%s: %v rows have ok set, want 14", when, got.Rows[0][0])
		}
	}
	verify("as inserted", false)

	// Rebuild the index from the records' wire bytes: the keys of legacy
	// and compact records must sort into one order.
	if err := db.DeferIndexes(); err != nil {
		t.Fatal(err)
	}
	if err := db.ResumeIndexes(); err != nil {
		t.Fatal(err)
	}
	verify("after an index rebuild", false)

	// Rewrite every fifth row, half of them legacy, the way the
	// warehouse rewrites a document: DELETE, then INSERT the same id in
	// the compact form. ANALYZE then decodes every record.
	if res := mustExec(t, db, `DELETE FROM m WHERE id IN (-20, -15, -10, -5, 0, 5, 10, 15)`); res.RowsAffected != 8 {
		t.Fatalf("DELETE removed %d rows, want 8", res.RowsAffected)
	}
	var renamed []value.Tuple
	for i := 0; i < 40; i += 5 {
		r := row(i)
		r[1] = value.NewText("renamed")
		renamed = append(renamed, r)
	}
	if err := db.InsertBatch("m", renamed); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	verify("after DELETE + INSERT and ANALYZE", true)

	// The log now holds inserts of both forms; recover from it.
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(path, Options{PoolPages: 256}); err != nil {
		t.Fatal(err)
	}
	if !db.Recovered() {
		t.Error("reopen after Crash did not replay the log")
	}
	verify("after recovery", true)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(path, Options{PoolPages: 256}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	verify("after a clean reopen", true)
}

// fillTable creates table name (id INT, pad TEXT) with an index and n rows.
func fillTable(t *testing.T, db *DB, name string, n int) {
	t.Helper()
	mustExec(t, db, fmt.Sprintf(`CREATE TABLE %s (id INT, pad TEXT)`, name))
	mustExec(t, db, fmt.Sprintf(`CREATE INDEX idx_%s ON %s (id)`, name, name))
	tups := make([]value.Tuple, n)
	for i := range tups {
		tups[i] = value.Tuple{value.NewInt(int64(i)), value.NewText(strings.Repeat("p", 100))}
	}
	mustBatch(t, db, name, tups)
}

func statsOf(t *testing.T, db *DB, name string) TableStats {
	t.Helper()
	for _, ts := range db.Stats().Tables {
		if ts.Name == name {
			return ts
		}
	}
	t.Fatalf("no table %q in Stats", name)
	return TableStats{}
}

// TestDropRecyclesPages: a dropped table's heap chain, its tree and the
// tree's anchor go to the free list at the commit, and the next table
// grows into them instead of growing the file.
func TestDropRecyclesPages(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drop.db")
	db, err := Open(path, Options{PoolPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	fillTable(t, db, "keep", 500)
	fillTable(t, db, "doomed", 3000)
	ts := statsOf(t, db, "doomed")
	owned := ts.HeapPages + ts.IndexPages["idx_doomed"]
	if ts.HeapPages < 30 || ts.IndexPages["idx_doomed"] < 5 || ts.HeapBytes < 3000*100 {
		t.Fatalf("doomed table too small for the test: %+v", ts)
	}
	before := db.Stats()
	if before.FreePages != 0 {
		t.Fatalf("%d free pages before anything was dropped", before.FreePages)
	}

	mustExec(t, db, `DROP TABLE doomed`)
	after := db.Stats()
	if after.FilePages != before.FilePages || after.FreePages != owned || after.RetiredPages != 0 {
		t.Fatalf("after DROP TABLE: file %d pages (was %d), %d free, %d retired; the table owned %d",
			after.FilePages, before.FilePages, after.FreePages, after.RetiredPages, owned)
	}
	mustCheck(t, db, "after DROP TABLE")

	fillTable(t, db, "heir", 3000)
	grown := db.Stats()
	if grown.FilePages != before.FilePages {
		t.Errorf("an equal table after the drop grew the file from %d to %d pages", before.FilePages, grown.FilePages)
	}
	mustCheck(t, db, "after reuse")
	if got := mustQuery(t, db, `SELECT COUNT(*) FROM heir WHERE id >= 2990`); got.Rows[0][0].Int() != 10 {
		t.Errorf("heir reads back %v rows of its last ten", got.Rows[0][0])
	}
	if got := mustQuery(t, db, `SELECT COUNT(*) FROM keep`); got.Rows[0][0].Int() != 500 {
		t.Errorf("keep lost rows to the recycling: %v", got.Rows[0][0])
	}

	heirTree := statsOf(t, db, "heir").IndexPages["idx_heir"]
	mustExec(t, db, `DROP INDEX idx_heir`)
	if got, want := db.Stats().FreePages, grown.FreePages+heirTree; got != want || heirTree < 5 {
		t.Errorf("after DROP INDEX: %d free pages, want %d more than %d", got, heirTree, grown.FreePages)
	}
	mustCheck(t, db, "after DROP INDEX")

	// The list is derived again when the file is reopened.
	wantFree := db.Stats().FreePages
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(path, Options{PoolPages: 512}); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().FreePages; got != wantFree {
		t.Errorf("reopened file has %d free pages, had %d when closed", got, wantFree)
	}
	mustCheck(t, db, "after reopen")
}

// TestDropRolledBackKeepsPages: pages of a table dropped in a batch that
// rolls back must neither be freed nor stay queued for the next commit.
func TestDropRolledBackKeepsPages(t *testing.T) {
	db := openDB(t)
	fillTable(t, db, "kept", 2000)
	before := db.Stats()
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `DROP TABLE kept`)
	mustCheck(t, db, "inside the dropping batch")
	if err := db.Rollback(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE other (id INT)`) // a commit that must retire nothing
	mustCheck(t, db, "after rollback")
	if got := mustQuery(t, db, `SELECT COUNT(*) FROM kept WHERE id < 10`); got.Rows[0][0].Int() != 10 {
		t.Errorf("table dropped in a rolled-back batch reads %v of 10 rows", got.Rows[0][0])
	}
	// The rollback rebuilt the index into the pages of the old one: the
	// file grows by the new table's heap page at most.
	if after := db.Stats(); after.FilePages > before.FilePages+1 {
		t.Errorf("rollback grew the file from %d to %d pages", before.FilePages, after.FilePages)
	}
}

// TestRetiredTreesWaitForSnapshot: DeferIndexes retires the trees, but a
// snapshot pinned before it keeps reading them — unchanged, whatever the
// load and rebuild do — and their pages reach the free list only when it
// lets go. Without a reader they are free at once.
func TestRetiredTreesWaitForSnapshot(t *testing.T) {
	db := openDB(t)
	fillTable(t, db, "w", 4000)
	treePages := statsOf(t, db, "w").IndexPages["idx_w"]
	sel := func(q string) *Select {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		return stmt.(*Select)
	}
	probe := sel(`SELECT id, pad FROM w WHERE id >= 1990 AND id < 2010`)
	read := func(snap *Snap) []string {
		t.Helper()
		rows, err := db.QueryStmtOptsContext(context.Background(), probe, ExecOpts{Snap: snap})
		if err != nil {
			t.Fatal(err)
		}
		return rowStrings(rows)
	}

	snap := db.AcquireSnapshot()
	pinned := read(snap)
	if len(pinned) != 20 {
		t.Fatalf("probe returns %d rows, want 20", len(pinned))
	}
	if err := db.DeferIndexes(); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.RetiredPages != treePages || st.FreePages != 0 {
		t.Fatalf("with a reader pinned: %d retired, %d free; the tree has %d pages", st.RetiredPages, st.FreePages, treePages)
	}
	mustCheck(t, db, "inside the deferred window")
	more := make([]value.Tuple, 4000)
	for i := range more {
		more[i] = value.Tuple{value.NewInt(int64(2000)), value.NewText("late arrival")}
	}
	mustBatch(t, db, "w", more)
	if got := read(snap); !reflect.DeepEqual(got, pinned) {
		t.Fatalf("pinned snapshot changed during the load:\n got %v\nwant %v", got, pinned)
	}
	if err := db.ResumeIndexes(); err != nil {
		t.Fatal(err)
	}
	if got := read(snap); !reflect.DeepEqual(got, pinned) {
		t.Fatalf("pinned snapshot changed after the rebuild:\n got %v\nwant %v", got, pinned)
	}
	if st := db.Stats(); st.RetiredPages != treePages || st.FreePages != 0 {
		t.Fatalf("after the rebuild, reader still pinned: %d retired, %d free", st.RetiredPages, st.FreePages)
	}
	mustCheck(t, db, "rebuilt, old trees still pinned")
	if got := mustQuery(t, db, `SELECT COUNT(*) FROM w WHERE id = 2000`); got.Rows[0][0].Int() != 4001 {
		t.Fatalf("new tree finds %v rows with id 2000, want 4001", got.Rows[0][0])
	}

	db.ReleaseSnapshot(snap)
	if st := db.Stats(); st.RetiredPages != 0 || st.FreePages != treePages {
		t.Fatalf("after the reader left: %d retired, %d free, want 0 and %d", st.RetiredPages, st.FreePages, treePages)
	}
	mustCheck(t, db, "old trees freed")

	// No reader: the next rebuild recycles in place.
	filePages := db.Stats().FilePages
	if err := db.DeferIndexes(); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.RetiredPages != 0 || st.FreePages < treePages {
		t.Fatalf("unpinned DeferIndexes: %d retired, %d free", st.RetiredPages, st.FreePages)
	}
	if err := db.ResumeIndexes(); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().FilePages; got != filePages {
		t.Errorf("an unpinned rebuild grew the file from %d to %d pages", filePages, got)
	}
	mustCheck(t, db, "recycled in place")
}

// TestCheckPagesCatchesLeakAndDoubleOwner damages the page accounting in
// the two ways it exists to catch, and reopens a file with unreachable
// pages — what every file written before pages were recycled looks like
// after a few loads — to see them land on the free list.
func TestCheckPagesCatchesLeakAndDoubleOwner(t *testing.T) {
	path := filepath.Join(t.TempDir(), "acct.db")
	db, err := Open(path, Options{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	fillTable(t, db, "a", 1000)
	mustCheck(t, db, "intact")

	var orphans []uint32
	for i := 0; i < 5; i++ {
		f, err := db.pool.Allocate(page.KindBTreeLeaf)
		if err != nil {
			t.Fatal(err)
		}
		orphans = append(orphans, uint32(f.ID()))
		db.pool.Unpin(f, true)
	}
	if err := db.CheckConsistency(); err == nil || !strings.Contains(err.Error(), "leaked") {
		t.Fatalf("five pages nothing owns: CheckConsistency = %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(path, Options{PoolPages: 256}); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().FreePages; got != len(orphans) {
		t.Errorf("reopening a file with %d unreachable pages %v found %d free", len(orphans), orphans, got)
	}
	mustCheck(t, db, "after the reopen swept the orphans up")

	heapPage := db.cat.tables["a"].Heap.PageIDs()[1]
	if err := db.mgr.Free(heapPage); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckConsistency(); err == nil || !strings.Contains(err.Error(), "belongs to") {
		t.Fatalf("a live heap page on the free list: CheckConsistency = %v", err)
	}
	// Take it off again so Close does not hand a live page out.
	free := db.mgr.FreePages()
	for i, id := range free {
		if id == heapPage {
			free = append(free[:i], free[i+1:]...)
			break
		}
	}
	if err := db.mgr.SetFree(free); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, db, "repaired")
}
