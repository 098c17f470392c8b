package heap

import (
	"bytes"
	"fmt"
	"testing"

	"xomatiq/internal/storage/disk"
)

// TestPageIDsTracksChain checks that the page list matches the on-disk
// chain across growth, reopen, and page-at-a-time iteration — admin
// checks and table drops walk the heap by this list.
func TestPageIDsTracksChain(t *testing.T) {
	fx := newFixture(t)
	h, err := Create(fx.pool, fx.log, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumPages() != 1 {
		t.Fatalf("fresh heap has %d pages", h.NumPages())
	}
	var want []string
	for i := 0; i < 300; i++ {
		s := fmt.Sprintf("row-%04d-%s", i, bytes.Repeat([]byte{'y'}, 120))
		want = append(want, s)
		if _, err := h.Insert(1, []byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumPages() < 2 {
		t.Fatalf("expected multi-page heap, got %d pages", h.NumPages())
	}

	// The page list must agree with walking the chain via ScanPage.
	ids := h.PageIDs()
	var got []string
	for i, id := range ids {
		next, stopped, err := h.ScanPage(id, func(rid RID, rec []byte) bool {
			if rid.Page != id {
				t.Fatalf("rid page %d inside page %d", rid.Page, id)
			}
			got = append(got, string(rec))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if stopped {
			t.Fatalf("page %d reported early stop", id)
		}
		if i < len(ids)-1 && next != ids[i+1] {
			t.Fatalf("page %d links to %d, page list says %d", id, next, ids[i+1])
		}
		if i == len(ids)-1 && next != disk.InvalidPage {
			t.Fatalf("last page links to %d", next)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("pagewise scan saw %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pagewise scan order broken at %d", i)
		}
	}

	// ScanPage honours the callback's stop signal.
	n := 0
	_, stopped, err := h.ScanPage(ids[0], func(RID, []byte) bool { n++; return false })
	if err != nil || !stopped || n != 1 {
		t.Errorf("early stop: n=%d stopped=%v err=%v", n, stopped, err)
	}

	// Reopen rebuilds the same page list from the chain.
	if err := fx.pool.Flush(); err != nil {
		t.Fatal(err)
	}
	h2, err := Open(fx.pool, fx.log, h.FirstPage())
	if err != nil {
		t.Fatal(err)
	}
	ids2 := h2.PageIDs()
	if len(ids2) != len(ids) {
		t.Fatalf("reopen: %d pages, want %d", len(ids2), len(ids))
	}
	for i := range ids {
		if ids[i] != ids2[i] {
			t.Fatalf("reopen page list differs at %d: %d vs %d", i, ids[i], ids2[i])
		}
	}
}

// TestInsertBatchGrowsPageList covers the bulk-load growth path.
func TestInsertBatchGrowsPageList(t *testing.T) {
	fx := newFixture(t)
	h, err := Create(fx.pool, fx.log, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([][]byte, 400)
	for i := range recs {
		recs[i] = []byte(fmt.Sprintf("batch-%04d-%s", i, bytes.Repeat([]byte{'z'}, 100)))
	}
	if _, err := h.InsertBatch(1, recs); err != nil {
		t.Fatal(err)
	}
	if h.NumPages() < 2 {
		t.Fatalf("batch insert left %d pages", h.NumPages())
	}
	n := 0
	if err := h.Scan(func(RID, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 400 {
		t.Fatalf("scan saw %d rows", n)
	}
}
