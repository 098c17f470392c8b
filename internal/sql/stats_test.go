package sql

import (
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"testing"

	"xomatiq/internal/storage/heap"
	"xomatiq/internal/value"
)

func TestKMVSketchExactBelowK(t *testing.T) {
	var s kmvSketch
	h := fnv.New64a()
	for i := 0; i < kmvK-1; i++ {
		h.Reset()
		fmt.Fprintf(h, "v%d", i)
		s.add(h.Sum64())
	}
	// Duplicates must not inflate the count.
	for i := 0; i < kmvK-1; i++ {
		h.Reset()
		fmt.Fprintf(h, "v%d", i)
		s.add(h.Sum64())
	}
	if got := s.estimate(); got != kmvK-1 {
		t.Fatalf("estimate=%d, want exact %d", got, kmvK-1)
	}
}

// splitmix64 is the reference uniform mixer; the sketch's accuracy
// contract assumes uniformly distributed hashes (FNV over real column
// encodings is close enough in practice, see TestCollectStatsFreqAndSkew).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func TestKMVSketchEstimateAccuracy(t *testing.T) {
	for _, n := range []int{1000, 10000, 100000} {
		var s kmvSketch
		for i := 0; i < n; i++ {
			s.add(splitmix64(uint64(i)))
		}
		est := float64(s.estimate())
		// Theoretical relative error is ~1/sqrt(k) ≈ 6%; allow 4 sigma.
		if relErr := math.Abs(est-float64(n)) / float64(n); relErr > 4/math.Sqrt(kmvK) {
			t.Errorf("n=%d: estimate=%v, relative error %.3f too large", n, est, relErr)
		}
	}
}

func TestStatsRowRoundTrip(t *testing.T) {
	st := &tableStats{
		Rows: 1234,
		Cols: []colStats{
			{
				NDV: 3, Nulls: 7,
				Min: value.NewInt(-5), Max: value.NewInt(99),
				Freq: map[string]freqEntry{
					string(value.NewInt(1).EncodeKey(nil)):  {Val: value.NewInt(1), N: 600},
					string(value.NewInt(2).EncodeKey(nil)):  {Val: value.NewInt(2), N: 400},
					string(value.NewInt(99).EncodeKey(nil)): {Val: value.NewInt(99), N: 227},
				},
			},
			// Sketch-only column: no freq map, text bounds.
			{NDV: 5000, Nulls: 0, Min: value.NewText("aaa"), Max: value.NewText("zzz")},
			// All-null column.
			{NDV: 0, Nulls: 1234},
		},
	}
	rec := encodeStatsRow("mytable", st)
	tup, err := value.DecodeTuple(rec)
	if err != nil {
		t.Fatal(err)
	}
	table, got, err := decodeStatsRow(tup)
	if err != nil {
		t.Fatal(err)
	}
	if table != "mytable" || got.Rows != st.Rows || len(got.Cols) != len(st.Cols) {
		t.Fatalf("header mismatch: table=%q rows=%d ncols=%d", table, got.Rows, len(got.Cols))
	}
	for i, c := range st.Cols {
		g := got.Cols[i]
		if g.NDV != c.NDV || g.Nulls != c.Nulls {
			t.Errorf("col %d: ndv/nulls %d/%d, want %d/%d", i, g.NDV, g.Nulls, c.NDV, c.Nulls)
		}
		if value.Compare(g.Min, c.Min) != 0 || value.Compare(g.Max, c.Max) != 0 {
			t.Errorf("col %d: min/max mismatch", i)
		}
		if len(g.Freq) != len(c.Freq) {
			t.Fatalf("col %d: freq size %d, want %d", i, len(g.Freq), len(c.Freq))
		}
		for k, e := range c.Freq {
			if ge, ok := g.Freq[k]; !ok || ge.N != e.N || value.Compare(ge.Val, e.Val) != 0 {
				t.Errorf("col %d: freq entry %x mismatch", i, k)
			}
		}
	}
	// Encoding must be deterministic byte-for-byte (fault sweeps count ops).
	if rec2 := encodeStatsRow("mytable", st); string(rec) != string(rec2) {
		t.Error("encodeStatsRow is not deterministic")
	}
}

func TestCollectStatsFreqAndSkew(t *testing.T) {
	db := newPlanFixture(t, true)
	db.mu.RLock()
	bt := db.cat.tables["big"]
	st := bt.Stats
	db.mu.RUnlock()
	if st == nil {
		t.Fatal("big has no stats after ANALYZE")
	}
	if st.Rows != 4000 {
		t.Fatalf("big stats rows=%d, want 4000", st.Rows)
	}
	// cat has 11 distinct values, all short: exact freq map retained.
	cat := st.Cols[1]
	if cat.NDV != 11 || cat.Freq == nil {
		t.Fatalf("cat: ndv=%d freq=%v, want 11 with freq map", cat.NDV, cat.Freq != nil)
	}
	common := cat.Freq[string(value.NewText("common").EncodeKey(nil))]
	if common.N != 3800 {
		t.Fatalf("freq[common]=%d, want 3800", common.N)
	}
	// v cycles 0..999: over the freq cap, sketch estimate near 1000.
	v := st.Cols[2]
	if v.Freq != nil {
		t.Error("v: freq map should have been dropped (1000 distinct)")
	}
	if v.NDV < 800 || v.NDV > 1250 {
		t.Errorf("v: ndv=%d, want ~1000", v.NDV)
	}
	if v.Min.Int() != 0 || v.Max.Int() != 999 {
		t.Errorf("v: min/max=%d/%d, want 0/999", v.Min.Int(), v.Max.Int())
	}
}

// TestStatsSurviveReopen closes and reopens the fixture and checks that
// the persisted catalog stats reload and produce the same plans.
func TestStatsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "reopen.db")
	db, err := Open(path, Options{QueryWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	mustExec := func(q string) {
		t.Helper()
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec(`CREATE TABLE big (id INT, cat TEXT)`)
	mustExec(`CREATE INDEX idx_cat ON big (cat)`)
	var tups []value.Tuple
	for i := 0; i < 2000; i++ {
		cat := "common"
		if i < 20 {
			cat = "rare"
		}
		tups = append(tups, value.Tuple{value.NewInt(int64(i)), value.NewText(cat)})
	}
	if err := db.InsertBatch("big", tups); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT id FROM big WHERE cat = 'common'`
	before, err := db.Explain(q, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(path, Options{QueryWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.mu.RLock()
	st := db.cat.tables["big"].Stats
	db.mu.RUnlock()
	if st == nil {
		t.Fatal("stats did not survive reopen")
	}
	if st.Rows != 2000 {
		t.Fatalf("reloaded rows=%d, want 2000", st.Rows)
	}
	after, err := db.Explain(q, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("plan changed across reopen:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestDropTableRemovesStats ensures the "S" catalog row dies with its
// table; otherwise reopen would log an orphaned stats row forever.
func TestDropTableRemovesStats(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "drop.db")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE tmp (a INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO tmp VALUES (1), (2), (3)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`DROP TABLE tmp`); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The catalog must hold no stray "S" row for the dropped table.
	db.mu.RLock()
	defer db.mu.RUnlock()
	err = db.catH.Scan(func(_ heap.RID, rec []byte) bool {
		tup, derr := value.DecodeTuple(rec)
		if derr == nil && len(tup) > 1 && tup[0].Text() == "S" && tup[1].Text() == "tmp" {
			t.Error("orphaned stats row for dropped table")
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollectStatsBounds feeds collectStats the values on which comparing
// index keys instead of values could go wrong (integers past 2^53 share a
// float64 key, -0 and +0 do not, NaN compares equal to everything, a NUL
// byte is escaped in a key) and checks Min and Max against value.Compare
// applied to every decoded row in heap order.
func TestCollectStatsBounds(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "bounds.db"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE edge (i INT, f FLOAT, s TEXT, m INT)`); err != nil {
		t.Fatal(err)
	}
	const big = int64(1) << 53
	negZero := math.Copysign(0, -1)
	// 2^53 and 2^53+1 share a key, as do 2^53+4 and 2^53+5; in each pair
	// the value that arrives second is the column's final bound.
	rows := []value.Tuple{
		{value.NewInt(big + 1), value.NewFloat(0), value.NewText("a\x00"), value.NewInt(5)},
		{value.NewInt(big + 4), value.NewFloat(negZero), value.NewText("a"), value.NewInt(5)},
		{value.NewInt(big), value.NewFloat(math.NaN()), value.NewText("a\x00\x00"), value.Null},
		{value.NewInt(big + 5), value.NewFloat(-1), value.NewText("a\x01"), value.NewInt(7)},
		{value.NewInt(big + 2), value.NewFloat(1), value.NewText(""), value.NewInt(-big - 1)},
		{value.NewInt(big + 1), value.NewFloat(negZero), value.NewText("a\x00"), value.NewInt(-big)},
		{value.NewInt(big + 2), value.NewFloat(0), value.NewText("b"), value.NewInt(4)},
	}
	mustBatch(t, db, "edge", rows)
	db.mu.RLock()
	defer db.mu.RUnlock()
	tbl := db.cat.tables["edge"]
	st, err := collectStats(tbl)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]colStats, len(tbl.Columns))
	err = tbl.Heap.Scan(func(_ heap.RID, rec []byte) bool {
		tup, derr := value.DecodeTuple(rec)
		if derr != nil {
			t.Fatal(derr)
		}
		for i, v := range tup {
			c := &want[i]
			if v.IsNull() {
				continue
			}
			if c.Min.IsNull() || value.Compare(v, c.Min) < 0 {
				c.Min = v
			}
			if c.Max.IsNull() || value.Compare(v, c.Max) > 0 {
				c.Max = v
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b value.Value) bool { // identical, not merely equal: -0 is not +0 here
		return a.Kind() == b.Kind() && string(a.Encode(nil)) == string(b.Encode(nil))
	}
	for i, c := range st.Cols {
		if !same(c.Min, want[i].Min) || !same(c.Max, want[i].Max) {
			t.Errorf("column %s: min/max %v/%v, want %v/%v", tbl.Columns[i].Name, c.Min, c.Max, want[i].Min, want[i].Max)
		}
	}
	if st.Rows != int64(len(rows)) || st.Cols[3].Nulls != 1 {
		t.Errorf("rows=%d nulls(m)=%d, want %d and 1", st.Rows, st.Cols[3].Nulls, len(rows))
	}
}
