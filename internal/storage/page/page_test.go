package page

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInitAndKind(t *testing.T) {
	p := New(KindHeap)
	if p.Kind() != KindHeap {
		t.Errorf("Kind = %v, want KindHeap", p.Kind())
	}
	if p.NumSlots() != 0 {
		t.Errorf("NumSlots = %d, want 0", p.NumSlots())
	}
	p.SetKind(KindBTreeLeaf)
	if p.Kind() != KindBTreeLeaf {
		t.Error("SetKind failed")
	}
}

func TestWrapPanicsOnWrongSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Wrap should panic on wrong size")
		}
	}()
	Wrap(make([]byte, 100))
}

func TestInsertGet(t *testing.T) {
	p := New(KindHeap)
	recs := [][]byte{[]byte("alpha"), []byte("beta"), {}, []byte("gamma-long-record")}
	slots := make([]int, len(recs))
	for i, r := range recs {
		s, err := p.Insert(r)
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		slots[i] = s
	}
	for i, r := range recs {
		got, err := p.Get(slots[i])
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if !bytes.Equal(got, r) {
			t.Errorf("Get(%d) = %q, want %q", slots[i], got, r)
		}
	}
	if p.LiveCount() != len(recs) {
		t.Errorf("LiveCount = %d, want %d", p.LiveCount(), len(recs))
	}
}

func TestGetErrors(t *testing.T) {
	p := New(KindHeap)
	if _, err := p.Get(0); err == nil {
		t.Error("Get on empty page should fail")
	}
	if _, err := p.Get(-1); err == nil {
		t.Error("Get(-1) should fail")
	}
	s, _ := p.Insert([]byte("x"))
	if err := p.Delete(s); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(s); err == nil {
		t.Error("Get on deleted slot should fail")
	}
	if err := p.Delete(s); err == nil {
		t.Error("double Delete should fail")
	}
	if err := p.Delete(99); err == nil {
		t.Error("Delete out of range should fail")
	}
}

func TestSlotReuse(t *testing.T) {
	p := New(KindHeap)
	a, _ := p.Insert([]byte("a"))
	b, _ := p.Insert([]byte("b"))
	if err := p.Delete(a); err != nil {
		t.Fatal(err)
	}
	c, err := p.Insert([]byte("c"))
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Errorf("expected slot reuse: got %d, want %d", c, a)
	}
	got, _ := p.Get(b)
	if !bytes.Equal(got, []byte("b")) {
		t.Error("unrelated slot disturbed")
	}
}

func TestPageFull(t *testing.T) {
	p := New(KindHeap)
	rec := make([]byte, 1000)
	inserted := 0
	for {
		if _, err := p.Insert(rec); err != nil {
			if !errors.Is(err, ErrPageFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		inserted++
	}
	if inserted != 8 { // 8*1000 payload + slots fits; 9th doesn't
		t.Errorf("inserted %d 1000-byte records, want 8", inserted)
	}
	if _, err := p.Insert(make([]byte, Size)); !errors.Is(err, ErrPageFull) {
		t.Error("oversized record should be ErrPageFull")
	}
}

func TestCompactionReclaimsSpace(t *testing.T) {
	p := New(KindHeap)
	rec := make([]byte, 1500)
	var slots []int
	for {
		s, err := p.Insert(rec)
		if err != nil {
			break
		}
		slots = append(slots, s)
	}
	// Delete every other record, then insert one that only fits after compaction.
	for i := 0; i < len(slots); i += 2 {
		if err := p.Delete(slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte{7}, 2000)
	s, err := p.Insert(big)
	if err != nil {
		t.Fatalf("Insert after deletes: %v", err)
	}
	got, _ := p.Get(s)
	if !bytes.Equal(got, big) {
		t.Error("record corrupted by compaction")
	}
	// Survivors intact.
	for i := 1; i < len(slots); i += 2 {
		got, err := p.Get(slots[i])
		if err != nil || !bytes.Equal(got, rec) {
			t.Errorf("survivor %d corrupted: %v", slots[i], err)
		}
	}
}

func TestUpdateInPlaceAndRelocate(t *testing.T) {
	p := New(KindHeap)
	s, _ := p.Insert([]byte("hello world"))
	if err := p.Update(s, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Get(s)
	if !bytes.Equal(got, []byte("hi")) {
		t.Errorf("in-place update: got %q", got)
	}
	long := bytes.Repeat([]byte{9}, 500)
	if err := p.Update(s, long); err != nil {
		t.Fatal(err)
	}
	got, _ = p.Get(s)
	if !bytes.Equal(got, long) {
		t.Error("relocating update corrupted record")
	}
}

func TestUpdateErrors(t *testing.T) {
	p := New(KindHeap)
	if err := p.Update(0, []byte("x")); err == nil {
		t.Error("Update out of range should fail")
	}
	s, _ := p.Insert([]byte("x"))
	p.Delete(s)
	if err := p.Update(s, []byte("y")); err == nil {
		t.Error("Update deleted slot should fail")
	}
	// Fill the page, then try to grow a record beyond capacity.
	p.Init(KindHeap)
	s, _ = p.Insert([]byte("tiny"))
	for {
		if _, err := p.Insert(make([]byte, 512)); err != nil {
			break
		}
	}
	if err := p.Update(s, make([]byte, 4096)); !errors.Is(err, ErrPageFull) {
		t.Errorf("Update overflow: got %v, want ErrPageFull", err)
	}
	// The original record must survive the failed update.
	got, err := p.Get(s)
	if err != nil || !bytes.Equal(got, []byte("tiny")) {
		t.Error("failed Update lost the original record")
	}
}

func TestRecordsIteration(t *testing.T) {
	p := New(KindHeap)
	want := map[int][]byte{}
	for i := 0; i < 5; i++ {
		rec := []byte(fmt.Sprintf("rec-%d", i))
		s, _ := p.Insert(rec)
		want[s] = rec
	}
	p.Delete(2)
	delete(want, 2)
	got := map[int][]byte{}
	p.Records(func(slot int, rec []byte) bool {
		got[slot] = append([]byte(nil), rec...)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("iterated %d records, want %d", len(got), len(want))
	}
	for s, r := range want {
		if !bytes.Equal(got[s], r) {
			t.Errorf("slot %d: got %q want %q", s, got[s], r)
		}
	}
	// Early stop.
	count := 0
	p.Records(func(int, []byte) bool { count++; return false })
	if count != 1 {
		t.Errorf("early stop visited %d records", count)
	}
}

// TestQuickPageModel runs random insert/delete/update sequences against a
// map model and checks the page agrees after every step.
func TestQuickPageModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New(KindHeap)
		model := map[int][]byte{}
		for step := 0; step < 300; step++ {
			switch rng.Intn(3) {
			case 0: // insert
				rec := make([]byte, rng.Intn(200))
				rng.Read(rec)
				s, err := p.Insert(rec)
				if err == nil {
					model[s] = rec
				}
			case 1: // delete
				for s := range model {
					if err := p.Delete(s); err != nil {
						return false
					}
					delete(model, s)
					break
				}
			case 2: // update
				for s := range model {
					rec := make([]byte, rng.Intn(200))
					rng.Read(rec)
					if err := p.Update(s, rec); err == nil {
						model[s] = rec
					}
					break
				}
			}
		}
		if p.LiveCount() != len(model) {
			return false
		}
		for s, want := range model {
			got, err := p.Get(s)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFreeSpaceMonotonic(t *testing.T) {
	p := New(KindHeap)
	before := p.FreeSpace()
	p.Insert(make([]byte, 100))
	after := p.FreeSpace()
	if after >= before {
		t.Errorf("FreeSpace did not shrink: %d -> %d", before, after)
	}
}

func TestAux(t *testing.T) {
	p := New(KindHeap)
	if p.Aux() != 0 {
		t.Errorf("fresh Aux = %d", p.Aux())
	}
	p.SetAux(0xDEADBEEF)
	if p.Aux() != 0xDEADBEEF {
		t.Error("SetAux round trip failed")
	}
	s, _ := p.Insert([]byte("payload"))
	got, _ := p.Get(s)
	if !bytes.Equal(got, []byte("payload")) {
		t.Error("Aux overlaps record area")
	}
	p.Init(KindHeap)
	if p.Aux() != 0 {
		t.Error("Init must clear Aux")
	}
}

func TestInsertAt(t *testing.T) {
	p := New(KindHeap)
	if err := p.InsertAt(3, []byte("three")); err != nil {
		t.Fatal(err)
	}
	if p.NumSlots() != 4 {
		t.Errorf("NumSlots = %d, want 4", p.NumSlots())
	}
	got, err := p.Get(3)
	if err != nil || !bytes.Equal(got, []byte("three")) {
		t.Errorf("Get(3) = %q, %v", got, err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Get(i); err == nil {
			t.Errorf("intermediate slot %d should be deleted", i)
		}
	}
	// Overwrite occupied slot.
	if err := p.InsertAt(3, []byte("replaced")); err != nil {
		t.Fatal(err)
	}
	got, _ = p.Get(3)
	if !bytes.Equal(got, []byte("replaced")) {
		t.Error("InsertAt overwrite failed")
	}
	// Fill a hole.
	if err := p.InsertAt(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	got, _ = p.Get(1)
	if !bytes.Equal(got, []byte("one")) {
		t.Error("InsertAt into hole failed")
	}
	if err := p.InsertAt(-1, nil); err == nil {
		t.Error("InsertAt(-1) should fail")
	}
}

func TestInsertAtReplaysInsertSequence(t *testing.T) {
	// Replaying (slot, rec) pairs recorded from normal Inserts through
	// InsertAt on a fresh page must reproduce the same contents.
	src := New(KindHeap)
	dst := New(KindHeap)
	type op struct {
		slot int
		rec  []byte
	}
	var log []op
	for i := 0; i < 20; i++ {
		rec := []byte(fmt.Sprintf("record-%d", i))
		s, err := src.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, op{s, rec})
	}
	for _, o := range log {
		if err := dst.InsertAt(o.slot, o.rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range log {
		got, err := dst.Get(o.slot)
		if err != nil || !bytes.Equal(got, o.rec) {
			t.Errorf("slot %d: %q, %v", o.slot, got, err)
		}
	}
}

func TestImageRoundTrip(t *testing.T) {
	p := New(KindHeap)
	p.SetAux(77)
	var slots []int
	for i := 0; i < 40; i++ {
		s, err := p.Insert(bytes.Repeat([]byte{byte('a' + i%26)}, 30+i))
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	for _, s := range slots[:10] { // holes inside the record area travel with the image
		if err := p.Delete(s); err != nil {
			t.Fatal(err)
		}
	}
	img := p.AppendImage([]byte("hdr"))[3:]
	if want := Size - p.FreeSpace() - slotSize; len(img) != want {
		t.Fatalf("image is %d bytes, want the %d used ones", len(img), want)
	}

	// Restoring over a page full of something else leaves nothing of it.
	q := Wrap(bytes.Repeat([]byte{0xAB}, Size))
	if err := q.SetImage(img); err != nil {
		t.Fatal(err)
	}
	if q.Kind() != KindHeap || q.Aux() != 77 || q.NumSlots() != p.NumSlots() || q.FreeSpace() != p.FreeSpace() {
		t.Fatalf("restored header differs: kind %d aux %d slots %d free %d", q.Kind(), q.Aux(), q.NumSlots(), q.FreeSpace())
	}
	for _, s := range slots {
		want, werr := p.Get(s)
		got, gerr := q.Get(s)
		if (werr == nil) != (gerr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("slot %d: restored %q, %v; original %q, %v", s, got, gerr, want, werr)
		}
	}
	if !bytes.Equal(q.AppendImage(nil), img) {
		t.Error("image of the restored page differs from the image it was restored from")
	}
	for _, b := range q.Bytes()[q.u16(offFreeStart):q.u16(offFreeEnd)] {
		if b != 0 {
			t.Fatal("free space of a restored page is not zero-filled")
		}
	}
	// The restored page keeps working as a page.
	if _, err := q.Insert([]byte("after replay")); err != nil {
		t.Fatal(err)
	}

	// A full-size image, as logs written before free space was skipped
	// hold, is taken byte for byte.
	r := New(KindFree)
	if err := r.SetImage(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Bytes(), p.Bytes()) {
		t.Error("full-size image not restored verbatim")
	}

	// An empty page is all header; a full one has no hole to skip.
	if img := New(KindHeap).AppendImage(nil); len(img) != headerSize {
		t.Errorf("empty page images to %d bytes, want %d", len(img), headerSize)
	}
}

func TestSetImageRejectsDamage(t *testing.T) {
	p := New(KindHeap)
	if _, err := p.Insert([]byte("record")); err != nil {
		t.Fatal(err)
	}
	img := p.AppendImage(nil)
	before := append([]byte(nil), p.Bytes()...)
	bad := map[string][]byte{
		"empty":            {},
		"shorter than hdr": img[:headerSize-1],
		"tail cut":         img[:len(img)-1],
		"tail grown":       append(append([]byte(nil), img...), 0),
	}
	crossed := append([]byte(nil), img...)
	crossed[offFreeStart], crossed[offFreeStart+1] = 0xFF, 0x1F // free space starts past its end
	bad["bounds crossed"] = crossed
	for name, b := range bad {
		if err := p.SetImage(b); err == nil {
			t.Errorf("%s: SetImage accepted a damaged image", name)
		}
		if !bytes.Equal(p.Bytes(), before) {
			t.Fatalf("%s: a refused image changed the page", name)
		}
	}
}
