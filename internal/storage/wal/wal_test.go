package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"xomatiq/internal/obs"
)

func logPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.wal")
}

func TestAppendScanRoundTrip(t *testing.T) {
	path := logPath(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Txn: 1, Op: OpInitPage, Page: 5, Kind: 1},
		{Txn: 1, Op: OpInsertAt, Page: 5, Slot: 0, Data: []byte("tuple-one")},
		{Txn: 1, Op: OpSetAux, Page: 5, Aux: 6},
		{Txn: 1, Op: OpCommit},
		{Txn: 2, Op: OpDelete, Page: 5, Slot: 0},
		{Txn: 2, Op: OpUpdate, Page: 5, Slot: 1, Data: []byte("v2")},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	var got []Record
	if err := Scan(path, func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("scanned %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !reflect.DeepEqual(got[i], recs[i]) {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestScanMissingFile(t *testing.T) {
	if err := Scan(filepath.Join(t.TempDir(), "absent.wal"), func(Record) error {
		t.Error("callback on missing file")
		return nil
	}); err != nil {
		t.Errorf("Scan of missing file: %v", err)
	}
}

func TestCommittedOpsDropsUncommittedTail(t *testing.T) {
	path := logPath(t)
	l, _ := Open(path)
	l.Append(Record{Txn: 1, Op: OpInsertAt, Page: 2, Data: []byte("a")})
	l.Append(Record{Txn: 1, Op: OpCommit})
	l.Append(Record{Txn: 2, Op: OpInsertAt, Page: 2, Data: []byte("b")})
	// txn 2 never commits (simulated crash)
	l.Sync()
	l.Close()

	ops, err := CommittedOps(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || string(ops[0].Data) != "a" {
		t.Errorf("CommittedOps = %+v, want only txn 1's insert", ops)
	}
}

func TestCommittedOpsInterleaved(t *testing.T) {
	path := logPath(t)
	l, _ := Open(path)
	l.Append(Record{Txn: 1, Op: OpInsertAt, Page: 2, Slot: 0, Data: []byte("a")})
	l.Append(Record{Txn: 2, Op: OpInsertAt, Page: 2, Slot: 1, Data: []byte("b")})
	l.Append(Record{Txn: 2, Op: OpCommit})
	l.Append(Record{Txn: 1, Op: OpInsertAt, Page: 2, Slot: 2, Data: []byte("c")})
	l.Append(Record{Txn: 1, Op: OpCommit})
	l.Sync()
	l.Close()

	ops, err := CommittedOps(path)
	if err != nil {
		t.Fatal(err)
	}
	// All committed; log order preserved.
	want := []string{"a", "b", "c"}
	if len(ops) != 3 {
		t.Fatalf("got %d ops, want 3", len(ops))
	}
	for i, w := range want {
		if string(ops[i].Data) != w {
			t.Errorf("op %d = %q, want %q", i, ops[i].Data, w)
		}
	}
}

func TestTornTailIgnored(t *testing.T) {
	path := logPath(t)
	l, _ := Open(path)
	l.Append(Record{Txn: 1, Op: OpInsertAt, Page: 2, Data: []byte("intact")})
	l.Append(Record{Txn: 1, Op: OpCommit})
	l.Sync()
	l.Close()

	// Corrupt: append a torn frame (header claims more bytes than present).
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xFF, 0x00, 0x00, 0x00, 1, 2, 3, 4, 9, 9})
	f.Close()

	ops, err := CommittedOps(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || string(ops[0].Data) != "intact" {
		t.Errorf("torn tail not ignored: %+v", ops)
	}
}

func TestCorruptChecksumEndsScan(t *testing.T) {
	path := logPath(t)
	l, _ := Open(path)
	l.Append(Record{Txn: 1, Op: OpInsertAt, Page: 2, Data: []byte("first")})
	l.Sync()
	size := l.Size()
	l.Append(Record{Txn: 1, Op: OpInsertAt, Page: 2, Data: []byte("second")})
	l.Sync()
	l.Close()

	// Flip a byte inside the second record's payload.
	data, _ := os.ReadFile(path)
	data[size+10] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	var n int
	Scan(path, func(Record) error { n++; return nil })
	if n != 1 {
		t.Errorf("scan past corrupt record: visited %d, want 1", n)
	}
}

func TestTruncate(t *testing.T) {
	path := logPath(t)
	l, _ := Open(path)
	l.Append(Record{Txn: 1, Op: OpInsertAt, Page: 2, Data: []byte("x")})
	l.Append(Record{Txn: 1, Op: OpCommit})
	l.Sync()
	if l.Size() == 0 {
		t.Fatal("size should be nonzero before truncate")
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Errorf("Size after truncate = %d", l.Size())
	}
	// Log still usable after truncation.
	l.Append(Record{Txn: 2, Op: OpInsertAt, Page: 3, Data: []byte("y")})
	l.Append(Record{Txn: 2, Op: OpCommit})
	l.Sync()
	l.Close()
	ops, err := CommittedOps(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || ops[0].Page != 3 {
		t.Errorf("post-truncate ops = %+v", ops)
	}
}

func TestSizeAcrossReopen(t *testing.T) {
	path := logPath(t)
	l, _ := Open(path)
	l.Append(Record{Txn: 1, Op: OpCommit})
	l.Sync()
	want := l.Size()
	l.Close()
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Size() != want {
		t.Errorf("reopened Size = %d, want %d", l2.Size(), want)
	}
}

// TestFramingBytes pins the bytes of a record on disk: Append assembles
// them without ever building the payload in one piece, and they must
// stay what every existing log holds.
func TestFramingBytes(t *testing.T) {
	path := logPath(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r := Record{Txn: 0x0102030405060708, Op: OpUpdate, Page: 0x11223344, Slot: 0x5566, Kind: 0x77, Aux: 0x8899AABB, Data: []byte("payload")}
	if err := l.Append(r); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	payload := []byte{
		8, 7, 6, 5, 4, 3, 2, 1, // txn, little-endian
		byte(OpUpdate),
		0x44, 0x33, 0x22, 0x11, // page
		0x66, 0x55, // slot
		0x77,                   // kind
		0xBB, 0xAA, 0x99, 0x88, // aux
		'p', 'a', 'y', 'l', 'o', 'a', 'd',
	}
	want := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(payload))
	want = append(want, payload...)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("record on disk:\n got %x\nwant %x", got, want)
	}
}

// TestAppendCopiesNothing: a page image goes from the caller's buffer to
// the log buffer with no allocation in between, and the byte counters
// split by record type add up to the total.
func TestAppendCopiesNothing(t *testing.T) {
	l, err := Open(logPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	m := &obs.WALMetrics{}
	l.SetMetrics(m)
	image := Record{Txn: 1, Op: OpPageImage, Page: 9, Kind: 1, Data: make([]byte, 8000)}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := l.Append(image); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Append of a page image allocates %.0f times", allocs)
	}
	for _, r := range []Record{
		{Txn: 1, Op: OpInsertAt, Page: 9, Data: []byte("row")},
		{Txn: 1, Op: OpDelete, Page: 9},
		{Txn: 1, Op: OpCommit},
	} {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.PageImageBytes.Load() + m.RowOpBytes.Load() + m.CommitBytes.Load(); got != m.Bytes.Load() || uint64(l.Size()) != got {
		t.Errorf("page images %d + row ops %d + commits %d = %d, wal.bytes %d, size %d",
			m.PageImageBytes.Load(), m.RowOpBytes.Load(), m.CommitBytes.Load(), got, m.Bytes.Load(), l.Size())
	}
	if m.CommitBytes.Load() != 28 || m.RowOpBytes.Load() != 28+3+28 {
		t.Errorf("commit bytes %d, row-op bytes %d", m.CommitBytes.Load(), m.RowOpBytes.Load())
	}
}
