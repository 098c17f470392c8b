package sql

import (
	"fmt"
	"strings"
	"testing"

	"xomatiq/internal/value"
)

func chunkTestSchema() *Schema {
	return &Schema{Cols: []SchemaCol{
		{Name: "i", Type: value.KindInt},
		{Name: "t", Type: value.KindText},
		{Name: "f", Type: value.KindFloat},
		{Name: "b", Type: value.KindBool},
		{Name: "y", Type: value.KindBytes},
	}}
}

func chunkTestTuple(i int) value.Tuple {
	if i%7 == 3 {
		return value.Tuple{value.Null, value.NewText(""), value.Null, value.Null, value.Null}
	}
	return value.Tuple{
		value.NewInt(int64(i - 50)),
		value.NewText(fmt.Sprintf("txt-%04d-%s", i, strings.Repeat("a", i%9))),
		value.NewFloat(float64(i) * 1.25),
		value.NewBool(i%2 == 0),
		value.NewBytes([]byte{byte(i), byte(i >> 1), 0xFF}),
	}
}

// TestChunkRecordRoundTrip decodes encoded heap records straight into
// the column vectors and checks every cell, via both TupleAt and Value,
// against the source tuples.
func TestChunkRecordRoundTrip(t *testing.T) {
	sch := chunkTestSchema()
	c := newChunk(sch, 64)
	var want []value.Tuple
	for i := 0; i < 60; i++ {
		tup := chunkTestTuple(i)
		want = append(want, tup)
		if err := c.AppendRecord(tup.Encode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Rows() != 60 {
		t.Fatalf("Rows() = %d, want 60", c.Rows())
	}
	for r, tup := range want {
		got := c.TupleAt(r)
		if fmt.Sprint(got) != fmt.Sprint(tup) {
			t.Fatalf("row %d: got %v, want %v", r, got, tup)
		}
		for col := range tup {
			if fmt.Sprint(c.Value(col, r)) != fmt.Sprint(tup[col]) {
				t.Fatalf("cell (%d,%d): got %v, want %v", col, r, c.Value(col, r), tup[col])
			}
		}
	}
}

// TestChunkRecordPadding pins the schema-evolution contract: records
// narrower than the schema read back with trailing NULLs, wider records
// are rejected.
func TestChunkRecordPadding(t *testing.T) {
	sch := chunkTestSchema()
	c := newChunk(sch, 8)
	short := value.Tuple{value.NewInt(7), value.NewText("x")}
	if err := c.AppendRecord(short.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	got := c.TupleAt(0)
	if got[0].Int() != 7 || got[1].Text() != "x" {
		t.Fatalf("prefix mismatch: %v", got)
	}
	for i := 2; i < len(sch.Cols); i++ {
		if got[i].Kind() != value.KindNull {
			t.Fatalf("col %d not padded to NULL: %v", i, got[i])
		}
	}
	wide := value.Tuple{
		value.NewInt(1), value.NewText("a"), value.NewFloat(1), value.NewBool(true),
		value.NewBytes([]byte{1}), value.NewInt(9),
	}
	if err := c.AppendRecord(wide.Encode(nil)); err == nil {
		t.Fatal("wide record accepted")
	}
}

// TestChunkSelectionVector checks that Rows/RowIdx iterate the logical
// (filtered) view and that narrowing sel in place is safe.
func TestChunkSelectionVector(t *testing.T) {
	c := newChunk(chunkTestSchema(), 32)
	for i := 0; i < 20; i++ {
		if err := c.AppendRecord(chunkTestTuple(i).Encode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	sel := c.sel[:0]
	for r := 0; r < c.n; r += 2 {
		sel = append(sel, r)
	}
	c.sel = sel
	if c.Rows() != 10 {
		t.Fatalf("Rows() = %d after selection, want 10", c.Rows())
	}
	for k := 0; k < c.Rows(); k++ {
		if c.RowIdx(k) != 2*k {
			t.Fatalf("RowIdx(%d) = %d, want %d", k, c.RowIdx(k), 2*k)
		}
	}
	// Narrow again in place, as a second filter would.
	sel = c.sel[:0]
	for k := 0; k < 10; k++ {
		if 2*k%3 == 0 {
			sel = append(sel, 2*k)
		}
	}
	c.sel = sel
	if c.Rows() != 4 { // physical rows 0, 6, 12, 18
		t.Fatalf("Rows() = %d after second narrowing, want 4", c.Rows())
	}
}

// TestChunkReuseRetentionSafety is the aliasing test of the issue: rows
// handed out by TupleAt/Value must stay correct after the chunk is
// reset and refilled. chunkPoison scribbles over the recycled payload,
// so any illegal aliasing shows up as corrupt values, not flaky stale
// ones.
func TestChunkReuseRetentionSafety(t *testing.T) {
	chunkPoison = true
	defer func() { chunkPoison = false }()
	c := newChunk(chunkTestSchema(), 32)
	var want, kept []value.Tuple
	for i := 0; i < 30; i++ {
		tup := chunkTestTuple(i)
		want = append(want, tup)
		if err := c.AppendRecord(tup.Encode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	for r := range want {
		kept = append(kept, c.TupleAt(r))
	}
	// Recycle the chunk the way operators do and refill with other data.
	c.Reset()
	for i := 100; i < 130; i++ {
		if err := c.AppendRecord(chunkTestTuple(i).Encode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	for r, tup := range want {
		if fmt.Sprint(kept[r]) != fmt.Sprint(tup) {
			t.Fatalf("retained row %d corrupted by chunk reuse: got %v, want %v",
				r, kept[r], tup)
		}
	}
}

// TestChunkAppendJoined checks the join output path: left columns copy
// arena bytes chunk-to-chunk, right columns come from a build tuple,
// missing right columns pad with NULL.
func TestChunkAppendJoined(t *testing.T) {
	lsch := &Schema{Cols: []SchemaCol{
		{Name: "lk", Type: value.KindInt}, {Name: "lt", Type: value.KindText},
	}}
	osch := &Schema{Cols: []SchemaCol{
		{Name: "lk", Type: value.KindInt}, {Name: "lt", Type: value.KindText},
		{Name: "rk", Type: value.KindInt}, {Name: "rt", Type: value.KindText},
	}}
	left := newChunk(lsch, 8)
	for i := 0; i < 4; i++ {
		rec := value.Tuple{value.NewInt(int64(i)), value.NewText(fmt.Sprintf("L%d", i))}.Encode(nil)
		if err := left.AppendRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	out := newChunk(osch, 8)
	out.appendJoined(left, 2, value.Tuple{value.NewInt(42), value.NewText("R")})
	out.appendJoined(left, 0, value.Tuple{value.NewInt(7)}) // short right side
	if got := fmt.Sprint(out.TupleAt(0)); got != fmt.Sprint(value.Tuple{
		value.NewInt(2), value.NewText("L2"), value.NewInt(42), value.NewText("R"),
	}) {
		t.Fatalf("joined row 0 = %s", got)
	}
	r1 := out.TupleAt(1)
	if r1[0].Int() != 0 || r1[1].Text() != "L0" || r1[2].Int() != 7 || r1[3].Kind() != value.KindNull {
		t.Fatalf("joined row 1 = %v", r1)
	}
}

// partitionedJoinQueries drive the partitioned hash join over unindexed
// columns; the 3000-row build side hash-partitions into more than one
// partition, so workers>1 exercises the concurrent per-partition build.
var partitionedJoinQueries = []string{
	`SELECT a.k, b.v FROM big a, big b WHERE a.k = b.k AND a.grp = 'g2'`,
	`SELECT a.k, b.k FROM big a, big b WHERE a.grp = b.grp AND a.k < 13 ORDER BY a.k, b.k LIMIT 40`,
	`SELECT COUNT(*) FROM big a, big b WHERE a.k = b.k AND a.grp = b.grp`,
}

// TestPartitionedJoinDeterminism is the join half of the byte-identity
// bar: partitioned hash join results — including row order — must be
// identical between QueryWorkers=1 (serial build) and QueryWorkers=4
// (concurrent per-partition build).
func TestPartitionedJoinDeterminism(t *testing.T) {
	db := openDB(t)
	seedBig(t, db, 3000)
	for _, q := range partitionedJoinQueries {
		plan, err := db.Explain(q, ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "partitioned hash join") {
			t.Fatalf("query does not use the partitioned hash join:\n%s", plan)
		}
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

// TestPartitionedJoinPoisonedReuse reruns a partitioned join probe with
// chunkPoison on: any operator that kept a reference into a recycled
// chunk (scan, filter, build, or probe side) returns corrupt rows and
// fails the comparison.
func TestPartitionedJoinPoisonedReuse(t *testing.T) {
	chunkPoison = true
	defer func() { chunkPoison = false }()
	db := openDB(t)
	seedBig(t, db, 1500)
	q := `SELECT a.k, b.v FROM big a, big b WHERE a.k = b.k AND a.grp = 'g4'`
	db.opts.QueryWorkers = 1
	serial := rowStrings(mustQuery(t, db, q))
	db.opts.QueryWorkers = 4
	parallel := rowStrings(mustQuery(t, db, q))
	if len(serial) == 0 {
		t.Fatal("probe query returned no rows")
	}
	for _, r := range append(append([]string{}, serial...), parallel...) {
		if strings.Contains(r, "\xdb\xdb") {
			t.Fatalf("poison bytes leaked into a result row: %q", r)
		}
	}
	if strings.Join(serial, "\n") != strings.Join(parallel, "\n") {
		t.Errorf("poisoned rerun diverged:\nserial   %v\nparallel %v", serial, parallel)
	}
}
