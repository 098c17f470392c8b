package bufpool

import (
	"fmt"
	"sync"
	"testing"

	"xomatiq/internal/storage/disk"
	"xomatiq/internal/storage/page"
)

// newPage allocates a heap page holding one record and publishes an epoch,
// returning the page id and the slot.
func seedPage(t *testing.T, p *Pool, rec string) (f *Frame, slot int) {
	t.Helper()
	f, err := p.Allocate(page.KindHeap)
	if err != nil {
		t.Fatal(err)
	}
	slot, err = f.Page().Insert([]byte(rec))
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f, true)
	return f, slot
}

func readRec(t *testing.T, p *Pool, ref PageRef, slot int) string {
	t.Helper()
	rec, err := ref.Page().Get(slot)
	if err != nil {
		t.Fatal(err)
	}
	out := string(rec)
	ref.Release()
	return out
}

func TestSnapshotReadSeesPreImage(t *testing.T) {
	p, _ := newPool(t, 8)
	f, slot := seedPage(t, p, "v1")
	id := f.ID()
	e1 := p.PublishEpoch()

	pinned := p.PinEpoch()
	if pinned != e1 {
		t.Fatalf("PinEpoch = %d, want %d", pinned, e1)
	}

	// Writer generation 2: overwrite the record.
	mf, err := p.FetchMut(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := mf.Page().Update(slot, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	p.UnpinMut(mf, true)

	// Old-epoch reader sees the pre-image; a new reader at the published
	// epoch still sees v1 too (generation 2 is unpublished).
	ref, err := p.ReadAt(id, pinned)
	if err != nil {
		t.Fatal(err)
	}
	if got := readRec(t, p, ref, slot); got != "v1" {
		t.Fatalf("snapshot read = %q, want v1", got)
	}

	e2 := p.PublishEpoch()
	ref2, err := p.ReadAt(id, e2)
	if err != nil {
		t.Fatal(err)
	}
	if got := readRec(t, p, ref2, slot); got != "v2" {
		t.Fatalf("current read = %q, want v2", got)
	}
	// The pinned reader still resolves to v1 across the publish.
	ref3, err := p.ReadAt(id, pinned)
	if err != nil {
		t.Fatal(err)
	}
	if got := readRec(t, p, ref3, slot); got != "v1" {
		t.Fatalf("pinned read after publish = %q, want v1", got)
	}
	p.UnpinEpoch(pinned)
}

func TestVersionGC(t *testing.T) {
	p, _ := newPool(t, 8)
	f, slot := seedPage(t, p, "v1")
	id := f.ID()
	p.PublishEpoch()
	e := p.PinEpoch()

	mf, _ := p.FetchMut(id)
	if err := mf.Page().Update(slot, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	p.UnpinMut(mf, true)
	p.PublishEpoch()

	if n := p.VersionCount(); n != 1 {
		t.Fatalf("VersionCount with pin = %d, want 1", n)
	}
	p.UnpinEpoch(e)
	if n := p.VersionCount(); n != 0 {
		t.Fatalf("VersionCount after unpin = %d, want 0", n)
	}
}

func TestFreshPageSkipsRetention(t *testing.T) {
	p, _ := newPool(t, 8)
	p.PublishEpoch()
	// Page born in the current (unpublished) generation: mutating it must
	// not retain a version — no published epoch ever saw it.
	f, slot := seedPage(t, p, "v1")
	mf, err := p.FetchMut(f.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := mf.Page().Update(slot, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	p.UnpinMut(mf, true)
	if n := p.VersionCount(); n != 0 {
		t.Fatalf("VersionCount = %d, want 0 (fresh page)", n)
	}
}

func TestRetainOncePerGeneration(t *testing.T) {
	p, _ := newPool(t, 8)
	f, slot := seedPage(t, p, "v1")
	id := f.ID()
	p.PublishEpoch()
	e := p.PinEpoch()
	defer p.UnpinEpoch(e)

	for i := 0; i < 3; i++ {
		mf, _ := p.FetchMut(id)
		if err := mf.Page().Update(slot, []byte(fmt.Sprintf("w%d", i))); err != nil {
			t.Fatal(err)
		}
		p.UnpinMut(mf, true)
	}
	if n := p.VersionCount(); n != 1 {
		t.Fatalf("VersionCount = %d, want 1 (one retention per generation)", n)
	}
	ref, err := p.ReadAt(id, e)
	if err != nil {
		t.Fatal(err)
	}
	if got := readRec(t, p, ref, slot); got != "v1" {
		t.Fatalf("snapshot read = %q, want v1", got)
	}
}

func TestDiscardDirtyKeepsVersionsAndOrphansPinned(t *testing.T) {
	p, mgr := newPool(t, 8)
	p.SetNoSteal(true)
	f, slot := seedPage(t, p, "v1")
	id := f.ID()
	if err := p.Flush(); err != nil { // checkpoint v1
		t.Fatal(err)
	}
	p.PublishEpoch()
	e := p.PinEpoch()
	defer p.UnpinEpoch(e)

	mf, _ := p.FetchMut(id)
	if err := mf.Page().Update(slot, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	p.UnpinMut(mf, true)

	// A reader holding the live frame across the discard keeps its bytes.
	live, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.DiscardDirty(); err != nil {
		t.Fatal(err)
	}
	rec, err := live.Page().Get(slot)
	if err != nil || string(rec) != "v2" {
		t.Fatalf("orphaned frame read = %q, %v; want v2", rec, err)
	}
	p.Unpin(live, false)

	// The retained version for the pinned epoch survives the discard.
	ref, err := p.ReadAt(id, e)
	if err != nil {
		t.Fatal(err)
	}
	if got := readRec(t, p, ref, slot); got != "v1" {
		t.Fatalf("snapshot read after discard = %q, want v1", got)
	}
	// And a fresh fetch rereads the checkpointed state.
	nf, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	rec, err = nf.Page().Get(slot)
	if err != nil || string(rec) != "v1" {
		t.Fatalf("post-discard fetch = %q, %v; want v1", rec, err)
	}
	p.Unpin(nf, false)
	_ = mgr
}

// TestConcurrentSnapshotReaders hammers one page with a writer publishing
// generations while readers pin epochs and assert they only ever see a
// value committed at their epoch. Run under -race this exercises the
// latch/version double-check protocol.
func TestConcurrentSnapshotReaders(t *testing.T) {
	p, _ := newPool(t, 8)
	f, slot := seedPage(t, p, "gen-0")
	id := f.ID()
	p.PublishEpoch() // epoch 1 = gen-0

	const gens = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := p.PinEpoch()
				ref, err := p.ReadAt(id, e)
				if err != nil {
					t.Error(err)
					p.UnpinEpoch(e)
					return
				}
				rec, err := ref.Page().Get(slot)
				if err != nil {
					t.Error(err)
				} else {
					want := fmt.Sprintf("gen-%d", e-1)
					if string(rec) != want {
						t.Errorf("epoch %d read %q, want %q", e, rec, want)
					}
				}
				ref.Release()
				p.UnpinEpoch(e)
			}
		}()
	}
	for g := 1; g <= gens; g++ {
		mf, err := p.FetchMut(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := mf.Page().Update(slot, []byte(fmt.Sprintf("gen-%d", g))); err != nil {
			t.Fatal(err)
		}
		p.UnpinMut(mf, true)
		p.PublishEpoch()
	}
	close(stop)
	wg.Wait()
	if n := p.PinnedEpochs(); n != 0 {
		t.Fatalf("PinnedEpochs = %d, want 0", n)
	}
}

func TestRetireWaitsForPinnedReaders(t *testing.T) {
	p, _ := newPool(t, 8)
	a, _ := seedPage(t, p, "a")
	b, _ := seedPage(t, p, "b")
	p.PublishEpoch()

	// Nothing pinned: pages retired now are free at the next publish.
	p.Retire([]disk.PageID{a.ID()})
	if free, retired := p.Recycling(); len(free) != 0 || len(retired) != 1 || retired[0] != a.ID() {
		t.Fatalf("free %v, retired %v; want page %d retired", free, retired, a.ID())
	}
	p.PublishEpoch()
	if free, retired := p.Recycling(); len(free) != 1 || free[0] != a.ID() || len(retired) != 0 {
		t.Fatalf("free %v, retired %v after an unpinned publish", free, retired)
	}

	// A reader pinned at the epoch that could still read b holds it back
	// across later publishes, until it lets go.
	pinned := p.PinEpoch()
	p.Retire([]disk.PageID{b.ID()})
	p.PublishEpoch()
	p.PublishEpoch()
	if free, retired := p.Recycling(); len(free) != 1 || len(retired) != 1 {
		t.Fatalf("free %v, retired %v while a reader at epoch %d is pinned", free, retired, pinned)
	}
	ref, err := p.ReadAt(b.ID(), pinned)
	if err != nil {
		t.Fatal(err)
	}
	if got := readRec(t, p, ref, 0); got != "b" {
		t.Errorf("pinned reader sees %q on a retired page, want b", got)
	}
	p.UnpinEpoch(pinned)
	if free, retired := p.Recycling(); len(free) != 2 || len(retired) != 0 {
		t.Errorf("free %v, retired %v after the last reader left", free, retired)
	}

	// A reset keeps what is still retired off the free list.
	p.Retire([]disk.PageID{b.ID()}) // as if b had been reallocated and dropped again
	live := make([]bool, 3)
	if err := p.ResetFree(live); err != nil {
		t.Fatal(err)
	}
	if free, _ := p.Recycling(); len(free) != 1 || free[0] != a.ID() {
		t.Errorf("free %v after a reset with page %d retired, want [%d]", free, b.ID(), a.ID())
	}
}
