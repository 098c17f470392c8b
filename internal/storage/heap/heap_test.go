package heap

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"xomatiq/internal/storage/bufpool"
	"xomatiq/internal/storage/disk"
	"xomatiq/internal/storage/page"
	"xomatiq/internal/storage/wal"
)

type fixture struct {
	mgr  *disk.Manager
	pool *bufpool.Pool
	log  *wal.Log
	dir  string
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	dir := t.TempDir()
	mgr, err := disk.Open(filepath.Join(dir, "data.db"))
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(filepath.Join(dir, "data.wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close(); mgr.Close() })
	return &fixture{mgr: mgr, pool: bufpool.New(mgr, 64), log: log, dir: dir}
}

func TestInsertGetDelete(t *testing.T) {
	fx := newFixture(t)
	h, err := Create(fx.pool, fx.log, 1)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := h.Insert(1, []byte("enzyme 1.14.17.3"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid)
	if err != nil || string(got) != "enzyme 1.14.17.3" {
		t.Errorf("Get = %q, %v", got, err)
	}
	if h.Count() != 1 {
		t.Errorf("Count = %d, want 1", h.Count())
	}
	if err := h.Delete(1, rid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid); err == nil {
		t.Error("Get after Delete should fail")
	}
	if h.Count() != 0 {
		t.Errorf("Count after delete = %d", h.Count())
	}
}

func TestMultiPageGrowth(t *testing.T) {
	fx := newFixture(t)
	h, _ := Create(fx.pool, fx.log, 1)
	rec := bytes.Repeat([]byte{7}, 1000)
	var rids []RID
	for i := 0; i < 50; i++ { // ~7 records per page -> multiple pages
		rid, err := h.Insert(1, rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	pages := map[disk.PageID]bool{}
	for _, r := range rids {
		pages[r.Page] = true
	}
	if len(pages) < 2 {
		t.Errorf("expected multi-page heap, got %d pages", len(pages))
	}
	for i, r := range rids {
		got, err := h.Get(r)
		if err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("record %d lost: %v", i, err)
		}
	}
}

func TestScanOrderAndCount(t *testing.T) {
	fx := newFixture(t)
	h, _ := Create(fx.pool, fx.log, 1)
	var want []string
	for i := 0; i < 200; i++ {
		s := fmt.Sprintf("row-%04d-%s", i, bytes.Repeat([]byte{'x'}, 100))
		want = append(want, s)
		if _, err := h.Insert(1, []byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	if err := h.Scan(func(rid RID, rec []byte) bool {
		got = append(got, string(rec))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan order broken at %d", i)
		}
	}
	// Early termination.
	n := 0
	h.Scan(func(RID, []byte) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestUpdateInPlaceAndRelocation(t *testing.T) {
	fx := newFixture(t)
	h, _ := Create(fx.pool, fx.log, 1)
	rid, _ := h.Insert(1, []byte("short"))
	nr, err := h.Update(1, rid, []byte("tiny"))
	if err != nil || nr != rid {
		t.Errorf("in-place update moved: %v %v", nr, err)
	}
	got, _ := h.Get(nr)
	if string(got) != "tiny" {
		t.Errorf("updated value = %q", got)
	}
	// Force cross-page relocation: fill the page, then grow the record.
	for {
		r, err := h.Insert(1, bytes.Repeat([]byte{1}, 512))
		if err != nil {
			t.Fatal(err)
		}
		if r.Page != rid.Page {
			break
		}
	}
	big := bytes.Repeat([]byte{2}, 4000)
	nr2, err := h.Update(1, nr, big)
	if err != nil {
		t.Fatal(err)
	}
	got, err = h.Get(nr2)
	if err != nil || !bytes.Equal(got, big) {
		t.Errorf("relocated record lost: %v", err)
	}
	if h.Count() == 0 {
		t.Error("Count corrupted by relocation")
	}
}

func TestTooLarge(t *testing.T) {
	fx := newFixture(t)
	h, _ := Create(fx.pool, fx.log, 1)
	if _, err := h.Insert(1, make([]byte, 9000)); err == nil {
		t.Error("oversized insert should fail")
	}
	rid, _ := h.Insert(1, []byte("x"))
	if _, err := h.Update(1, rid, make([]byte, 9000)); err == nil {
		t.Error("oversized update should fail")
	}
}

func TestOpenRecomputesState(t *testing.T) {
	fx := newFixture(t)
	h, _ := Create(fx.pool, fx.log, 1)
	for i := 0; i < 30; i++ {
		h.Insert(1, bytes.Repeat([]byte{byte(i)}, 700))
	}
	first := h.FirstPage()
	want := h.Count()

	h2, err := Open(fx.pool, fx.log, first)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Count() != want {
		t.Errorf("reopened Count = %d, want %d", h2.Count(), want)
	}
	// Appends through the reopened heap land after existing data.
	rid, err := h2.Insert(1, []byte("appended"))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := h2.Get(rid)
	if string(got) != "appended" {
		t.Error("append after reopen failed")
	}
}

// TestReplayReproducesHeap logs a workload, then replays the committed ops
// into a fresh file and checks the scan matches.
func TestReplayReproducesHeap(t *testing.T) {
	fx := newFixture(t)
	h, _ := Create(fx.pool, fx.log, 1)
	rng := rand.New(rand.NewSource(42))
	var live []RID
	for i := 0; i < 500; i++ {
		switch {
		case len(live) > 0 && rng.Intn(4) == 0:
			k := rng.Intn(len(live))
			if err := h.Delete(1, live[k]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		case len(live) > 0 && rng.Intn(4) == 0:
			k := rng.Intn(len(live))
			nr, err := h.Update(1, live[k], []byte(fmt.Sprintf("updated-%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			live[k] = nr
		default:
			rec := make([]byte, 20+rng.Intn(400))
			rng.Read(rec)
			rid, err := h.Insert(1, rec)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, rid)
		}
	}
	fx.log.Append(wal.Record{Txn: 1, Op: wal.OpCommit})
	fx.log.Sync()

	var want [][]byte
	h.Scan(func(_ RID, rec []byte) bool {
		want = append(want, append([]byte(nil), rec...))
		return true
	})

	// Fresh file + pool; replay the log. Pre-extend the file so replay's
	// page ids resolve (the engine relies on disk.Allocate having extended
	// the real file before any op was logged; here we mimic that).
	dir2 := t.TempDir()
	mgr2, err := disk.Open(filepath.Join(dir2, "replayed.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	for mgr2.NumPages() < fx.mgr.NumPages() {
		if _, err := mgr2.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	pool2 := bufpool.New(mgr2, 64)
	ops, err := wal.CommittedOps(filepath.Join(fx.dir, "data.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := Replay(pool2, ops); err != nil {
		t.Fatal(err)
	}
	h2, err := Open(pool2, nil, h.FirstPage())
	if err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	h2.Scan(func(_ RID, rec []byte) bool {
		got = append(got, append([]byte(nil), rec...))
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("replayed heap has %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("replayed record %d differs", i)
		}
	}
}

func TestQuickHeapModel(t *testing.T) {
	f := func(seed int64) bool {
		dir := t.TempDir()
		mgr, err := disk.Open(filepath.Join(dir, "q.db"))
		if err != nil {
			return false
		}
		defer mgr.Close()
		pool := bufpool.New(mgr, 32)
		h, err := Create(pool, nil, 1)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		model := map[RID][]byte{}
		for step := 0; step < 200; step++ {
			if len(model) > 0 && rng.Intn(3) == 0 {
				for rid := range model {
					if rng.Intn(2) == 0 {
						if h.Delete(1, rid) != nil {
							return false
						}
						delete(model, rid)
					} else {
						rec := make([]byte, rng.Intn(300))
						rng.Read(rec)
						nr, err := h.Update(1, rid, rec)
						if err != nil {
							return false
						}
						delete(model, rid)
						model[nr] = rec
					}
					break
				}
				continue
			}
			rec := make([]byte, rng.Intn(300))
			rng.Read(rec)
			rid, err := h.Insert(1, rec)
			if err != nil {
				return false
			}
			model[rid] = rec
		}
		if h.Count() != len(model) {
			return false
		}
		for rid, want := range model {
			got, err := h.Get(rid)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestRIDString(t *testing.T) {
	if got := (RID{Page: 3, Slot: 7}).String(); got != "3:7" {
		t.Errorf("RID.String = %q", got)
	}
}

// TestReplayPageImages bulk-loads through InsertBatch — whose log is page
// images with the free space left out — and replays the log twice into
// files whose pages hold garbage: once as logged, and once with every
// image blown up to the full 8192 bytes, which is what a log written
// before the free space was skipped holds. Both must reproduce the heap.
func TestReplayPageImages(t *testing.T) {
	fx := newFixture(t)
	h, err := Create(fx.pool, fx.log, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var rids []RID
	for batch := 0; batch < 5; batch++ { // five batches: four tail pages imaged twice
		recs := make([][]byte, 150)
		for i := range recs {
			recs[i] = make([]byte, 40+rng.Intn(200))
			rng.Read(recs[i])
		}
		got, err := h.InsertBatch(1, recs)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, got...)
	}
	for i := 0; i < len(rids); i += 7 {
		if err := h.Delete(1, rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	fx.log.Append(wal.Record{Txn: 1, Op: wal.OpCommit})
	fx.log.Sync()
	if h.NumPages() < 5 {
		t.Fatalf("workload fits %d pages; the test wants several", h.NumPages())
	}
	var want [][]byte
	var wantBytes int64
	h.Scan(func(_ RID, rec []byte) bool {
		want = append(want, append([]byte(nil), rec...))
		wantBytes += int64(len(rec))
		return true
	})
	if h.Bytes() != wantBytes || h.Count() != len(want) {
		t.Errorf("heap tracks %d records of %d bytes, scan finds %d of %d", h.Count(), h.Bytes(), len(want), wantBytes)
	}

	ops, err := wal.CommittedOps(filepath.Join(fx.dir, "data.wal"))
	if err != nil {
		t.Fatal(err)
	}
	images, imageBytes := 0, 0
	fullSize := make([]wal.Record, len(ops))
	for i, op := range ops {
		fullSize[i] = op
		if op.Op != wal.OpPageImage {
			continue
		}
		images++
		imageBytes += len(op.Data)
		pg := page.New(page.KindFree)
		if err := pg.SetImage(op.Data); err != nil {
			t.Fatal(err)
		}
		fullSize[i].Data = pg.Bytes()
	}
	if images <= h.NumPages() || imageBytes >= images*page.Size*95/100 {
		t.Errorf("%d images of %d bytes for %d pages: want tail pages imaged twice and free space skipped",
			images, imageBytes, h.NumPages())
	}

	for name, log := range map[string][]wal.Record{"hole-free": ops, "full-size": fullSize} {
		mgr, err := disk.Open(filepath.Join(t.TempDir(), "replayed.db"))
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		garbage := bytes.Repeat([]byte{0xAB}, page.Size)
		for mgr.NumPages() < fx.mgr.NumPages() {
			id, err := mgr.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if err := mgr.WritePage(id, garbage); err != nil {
				t.Fatal(err)
			}
		}
		pool := bufpool.New(mgr, 64)
		if err := Replay(pool, log); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h2, err := Open(pool, nil, h.FirstPage())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got [][]byte
		h2.Scan(func(_ RID, rec []byte) bool {
			got = append(got, append([]byte(nil), rec...))
			return true
		})
		if len(got) != len(want) || h2.Count() != len(want) || h2.Bytes() != wantBytes || h2.NumPages() != h.NumPages() {
			t.Fatalf("%s: replayed heap has %d records (%d counted, %d bytes, %d pages), want %d (%d bytes, %d pages)",
				name, len(got), h2.Count(), h2.Bytes(), h2.NumPages(), len(want), wantBytes, h.NumPages())
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: replayed record %d differs", name, i)
			}
		}
	}
}
