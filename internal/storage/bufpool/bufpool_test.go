package bufpool

import (
	"errors"
	"path/filepath"
	"testing"

	"xomatiq/internal/storage/disk"
	"xomatiq/internal/storage/page"
)

func newPool(t *testing.T, capacity int) (*Pool, *disk.Manager) {
	t.Helper()
	mgr, err := disk.Open(filepath.Join(t.TempDir(), "pool.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	return New(mgr, capacity), mgr
}

func TestAllocateFetch(t *testing.T) {
	p, _ := newPool(t, 4)
	f, err := p.Allocate(page.KindHeap)
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	slot, err := f.Page().Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f, true)

	f2, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := f2.Page().Get(slot)
	if err != nil || string(rec) != "hello" {
		t.Errorf("Get = %q, %v", rec, err)
	}
	p.Unpin(f2, false)
}

func TestEvictionWritesBack(t *testing.T) {
	p, _ := newPool(t, 2)
	f, _ := p.Allocate(page.KindHeap)
	id := f.ID()
	slot, _ := f.Page().Insert([]byte("survives eviction"))
	p.Unpin(f, true)

	// Fill the pool past capacity to force eviction of id.
	var ids []disk.PageID
	for i := 0; i < 4; i++ {
		g, err := p.Allocate(page.KindHeap)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, g.ID())
		p.Unpin(g, true)
	}
	if p.Len() > 2 {
		t.Errorf("pool holds %d frames, capacity 2", p.Len())
	}
	// Re-fetch the first page: must come back from disk intact.
	f2, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := f2.Page().Get(slot)
	if err != nil || string(rec) != "survives eviction" {
		t.Errorf("after eviction Get = %q, %v", rec, err)
	}
	p.Unpin(f2, false)
	_ = ids
}

func TestPinnedPagesNotEvicted(t *testing.T) {
	p, _ := newPool(t, 2)
	f1, _ := p.Allocate(page.KindHeap)
	f2, _ := p.Allocate(page.KindHeap)
	// Both pinned; a third allocation must fail.
	if _, err := p.Allocate(page.KindHeap); err == nil {
		t.Error("expected all-pinned error")
	}
	p.Unpin(f1, false)
	if _, err := p.Allocate(page.KindHeap); err != nil {
		t.Errorf("allocation after unpin: %v", err)
	}
	p.Unpin(f2, false)
}

func TestUnpinPanicsWhenNotPinned(t *testing.T) {
	p, _ := newPool(t, 2)
	f, _ := p.Allocate(page.KindHeap)
	p.Unpin(f, false)
	defer func() {
		if recover() == nil {
			t.Error("double unpin should panic")
		}
	}()
	p.Unpin(f, false)
}

func TestFlushPersists(t *testing.T) {
	mgr, err := disk.Open(filepath.Join(t.TempDir(), "flush.db"))
	if err != nil {
		t.Fatal(err)
	}
	p := New(mgr, 8)
	f, _ := p.Allocate(page.KindHeap)
	id := f.ID()
	slot, _ := f.Page().Insert([]byte("durable"))
	p.Unpin(f, true)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	// Read through a second pool over the same manager.
	p2 := New(mgr, 8)
	f2, err := p2.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := f2.Page().Get(slot)
	if err != nil || string(rec) != "durable" {
		t.Errorf("after flush Get = %q, %v", rec, err)
	}
	p2.Unpin(f2, false)
	mgr.Close()
}

func TestFetchSharesFrame(t *testing.T) {
	p, _ := newPool(t, 4)
	f, _ := p.Allocate(page.KindHeap)
	id := f.ID()
	g, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if f != g {
		t.Error("Fetch of cached page returned a different frame")
	}
	p.Unpin(f, false)
	p.Unpin(g, false)
}

func TestAllocateForgetsRecycledFrame(t *testing.T) {
	p, mgr := newPool(t, 4)
	f, _ := p.Allocate(page.KindHeap)
	id := f.ID()
	if _, err := f.Page().Insert([]byte("previous life")); err != nil {
		t.Fatal(err)
	}
	p.Unpin(f, true)
	if err := mgr.Free(id); err != nil {
		t.Fatal(err)
	}
	// The freed page is reused by the next allocation, and the frame its
	// previous life left in the cache neither shows through nor lingers.
	g, err := p.Allocate(page.KindMeta)
	if err != nil {
		t.Fatal(err)
	}
	if g.ID() != id {
		t.Fatalf("freed page not recycled: got %d, want %d", g.ID(), id)
	}
	if g == f || g.Page().NumSlots() != 0 || g.Page().Kind() != page.KindMeta {
		t.Error("recycled page came back with its old frame or contents")
	}
	p.Unpin(g, true)
	if p.Len() != 1 {
		t.Errorf("pool holds %d frames for one page", p.Len())
	}
}

func TestCapacityFloor(t *testing.T) {
	p, _ := newPool(t, 0)
	if p.capacity != 1 {
		t.Errorf("capacity floor: got %d, want 1", p.capacity)
	}
}

func TestNoStealEviction(t *testing.T) {
	p, _ := newPool(t, 2)
	p.SetNoSteal(true)
	f1, _ := p.Allocate(page.KindHeap)
	p.Unpin(f1, true) // dirty, unpinned
	f2, _ := p.Allocate(page.KindHeap)
	p.Unpin(f2, true) // dirty, unpinned
	if p.DirtyCount() != 2 {
		t.Errorf("DirtyCount = %d, want 2", p.DirtyCount())
	}
	// Pool full of dirty frames: next allocation must fail with
	// ErrNoCleanFrames rather than writing uncommitted pages to disk.
	_, err := p.Allocate(page.KindHeap)
	if err == nil || !errors.Is(err, ErrNoCleanFrames) {
		t.Fatalf("expected ErrNoCleanFrames, got %v", err)
	}
	// Checkpoint clears dirtiness; allocation then succeeds.
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if p.DirtyCount() != 0 {
		t.Errorf("DirtyCount after Flush = %d", p.DirtyCount())
	}
	f3, err := p.Allocate(page.KindHeap)
	if err != nil {
		t.Fatalf("allocate after flush: %v", err)
	}
	p.Unpin(f3, false)
}
