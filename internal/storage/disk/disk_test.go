package disk

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"xomatiq/internal/storage/page"
)

func open(t *testing.T) (*Manager, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.db")
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return m, path
}

func TestOpenCreatesHeader(t *testing.T) {
	m, path := open(t)
	if m.NumPages() != 1 {
		t.Errorf("fresh file NumPages = %d, want 1", m.NumPages())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	if m2.NumPages() != 1 {
		t.Errorf("reopened NumPages = %d, want 1", m2.NumPages())
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.db")
	junk := bytes.Repeat([]byte("not a database "), 10)
	if err := os.WriteFile(path, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Error("Open should reject a non-database file")
	}
}

func TestAllocateReadWrite(t *testing.T) {
	m, _ := open(t)
	defer m.Close()
	id, err := m.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id == InvalidPage {
		t.Fatal("Allocate returned InvalidPage")
	}
	buf := make([]byte, page.Size)
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := m.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, page.Size)
	if err := m.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Error("page round trip corrupted")
	}
}

func TestAllocatePersistsAcrossReopen(t *testing.T) {
	m, path := open(t)
	a, _ := m.Allocate()
	b, _ := m.Allocate()
	if a == b {
		t.Fatal("duplicate page ids")
	}
	buf := bytes.Repeat([]byte{0xAB}, page.Size)
	m.WritePage(b, buf)
	m.Close()

	m2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.NumPages() != 3 {
		t.Errorf("NumPages = %d, want 3", m2.NumPages())
	}
	got := make([]byte, page.Size)
	if err := m2.ReadPage(b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Error("page contents lost across reopen")
	}
}

func TestFreeListReuse(t *testing.T) {
	m, path := open(t)
	a, _ := m.Allocate()
	bID, _ := m.Allocate()
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	c, err := m.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Errorf("freed page not reused: got %d, want %d", c, a)
	}
	// The list is not stored: a reopened file has none until its owner
	// says which pages it cannot reach, lowest id handed out first.
	m.Free(bID)
	m.Close()
	m2, _ := Open(path)
	defer m2.Close()
	if got := m2.FreePages(); len(got) != 0 {
		t.Errorf("free list %v survived a reopen", got)
	}
	if err := m2.SetFree([]PageID{a, bID}); err != nil {
		t.Fatal(err)
	}
	d, _ := m2.Allocate()
	e, _ := m2.Allocate()
	f, _ := m2.Allocate()
	if d != a || e != bID || f != 3 {
		t.Errorf("allocated %d, %d, %d after SetFree, want %d, %d, 3", d, e, f, a, bID)
	}
}

func TestFreeInvalid(t *testing.T) {
	m, _ := open(t)
	defer m.Close()
	if err := m.Free(InvalidPage); err == nil {
		t.Error("Free(0) should fail")
	}
	if err := m.Free(99); err == nil {
		t.Error("Free of unallocated page should fail")
	}
}

func TestReadWriteErrors(t *testing.T) {
	m, _ := open(t)
	defer m.Close()
	small := make([]byte, 10)
	if err := m.ReadPage(1, small); err == nil {
		t.Error("short buffer read should fail")
	}
	if err := m.WritePage(1, small); err == nil {
		t.Error("short buffer write should fail")
	}
	full := make([]byte, page.Size)
	if err := m.ReadPage(InvalidPage, full); err == nil {
		t.Error("read page 0 should fail")
	}
	if err := m.WritePage(InvalidPage, full); err == nil {
		t.Error("write page 0 should fail")
	}
	if err := m.ReadPage(50, full); err == nil {
		t.Error("read beyond EOF should fail")
	}
}

func TestEnsureAllocated(t *testing.T) {
	m, _ := open(t)
	defer m.Close()
	if err := m.EnsureAllocated(5); err != nil {
		t.Fatal(err)
	}
	if m.NumPages() != 6 {
		t.Errorf("NumPages = %d, want 6", m.NumPages())
	}
	buf := make([]byte, page.Size)
	if err := m.ReadPage(5, buf); err != nil {
		t.Errorf("page 5 unreadable after EnsureAllocated: %v", err)
	}
	// Idempotent for already-allocated pages.
	if err := m.EnsureAllocated(2); err != nil {
		t.Fatal(err)
	}
	if m.NumPages() != 6 {
		t.Error("EnsureAllocated shrank or grew unexpectedly")
	}
}
