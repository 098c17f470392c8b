package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"xomatiq/internal/bio"
	"xomatiq/internal/hounds"
)

// renderIDs flattens a query result to one comparable string.
func renderIDs(r *Result) string {
	var parts []string
	for _, tup := range r.Rows {
		parts = append(parts, strings.Join(tup, "|"))
	}
	return strings.Join(parts, ",")
}

// TestReadPathEpochConsistency is the issue's concurrency bar: readers
// issue QueryContext calls while a writer flips the warehouse between
// two source versions via HarnessContext/UpdateContext. Every query
// must see exactly the pre- or post-load catalog epoch — a result that
// matches neither version is a torn view — and the plan cache must keep
// serving correct plans while epochs churn. Run with -race.
func TestReadPathEpochConsistency(t *testing.T) {
	e := openEngine(t)
	const db = "hlx_enzyme.DEFAULT"
	entriesA := bio.GenEnzymes(25, bio.GenOptions{Seed: 11})
	entriesB := append(append([]*bio.EnzymeEntry{}, entriesA...),
		&bio.EnzymeEntry{ID: "9.9.9.1", Description: []string{"Epoch enzyme one."}},
		&bio.EnzymeEntry{ID: "9.9.9.2", Description: []string{"Epoch enzyme two."}})
	flatA, flatB := enzymeFlat(t, entriesA), enzymeFlat(t, entriesB)
	src := hounds.NewSimSource("enzyme", flatA)
	if err := e.RegisterSource(db, src, hounds.EnzymeTransformer{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Harness(db); err != nil {
		t.Fatal(err)
	}

	const query = `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
RETURN $a//enzyme_id`
	mustRender := func() string {
		t.Helper()
		r, err := e.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		return renderIDs(r)
	}
	wantA := mustRender()
	src.Publish(flatB)
	if _, err := e.Update(db); err != nil {
		t.Fatal(err)
	}
	wantB := mustRender()
	if wantA == wantB {
		t.Fatal("versions A and B render identically; test cannot detect torn views")
	}
	src.Publish(flatA)
	if _, err := e.Update(db); err != nil {
		t.Fatal(err)
	}
	if got := mustRender(); got != wantA {
		t.Fatalf("round-trip back to A diverged:\n got %s\nwant %s", got, wantA)
	}

	const readers = 6
	const iterations = 15
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, readers*iterations+iterations)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				res, err := e.QueryContext(ctx, query)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if got := renderIDs(res); got != wantA && got != wantB {
					errs <- fmt.Errorf("reader %d: torn view, result matches neither epoch:\n got %s", r, got)
					return
				}
			}
		}(r)
	}
	// Writer: full re-harness on one parity, incremental update on the
	// other, so both load paths race the readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iterations; i++ {
			if i%2 == 0 {
				src.Publish(flatB)
			} else {
				src.Publish(flatA)
			}
			var err error
			if i%4 < 2 {
				_, err = e.UpdateContext(ctx, db)
			} else {
				_, err = e.HarnessContext(ctx, db)
			}
			if err != nil {
				errs <- fmt.Errorf("writer step %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Plan-cache correctness after the churn: the final state serves a
	// cached plan whose result still matches a fresh translation.
	final := mustRender()
	pcBefore := e.plans.stats()
	again := mustRender()
	pcAfter := e.plans.stats()
	if final != again {
		t.Errorf("stable warehouse returned differing results:\n%s\nvs\n%s", final, again)
	}
	if final != wantA && final != wantB {
		t.Errorf("final state matches neither version:\n%s", final)
	}
	if pcAfter.Hits <= pcBefore.Hits {
		t.Errorf("no plan-cache hit on a repeated query over a quiet catalog: %+v -> %+v", pcBefore, pcAfter)
	}
	if pcBefore.Invalidations == 0 {
		t.Errorf("epoch churn produced no plan-cache invalidations: %+v", pcBefore)
	}
}

// TestDocumentDuringUpdates reconstructs one entry in a loop while a
// writer flips it between two revisions with Updates (each a deletion
// commit followed by a load commit). Every answer must serialise to one
// of the two published revisions, or report the entry missing (between
// the two commits it is): a document with nodes from one commit and
// text from another is a torn read.
func TestDocumentDuringUpdates(t *testing.T) {
	e := openEngine(t)
	const db = "hlx_enzyme.DEFAULT"
	entries := bio.GenEnzymes(4, bio.GenOptions{Seed: 21})
	target := entries[1]
	revise := func(note string) string {
		rev := *target
		rev.Comments = nil
		for i := 0; i < 40; i++ {
			rev.Comments = append(rev.Comments, fmt.Sprintf("%s remark %d on the catalytic site.", note, i))
		}
		all := append([]*bio.EnzymeEntry{}, entries...)
		all[1] = &rev
		return enzymeFlat(t, all)
	}
	flatA, flatB := revise("First"), revise("Second")
	src := hounds.NewSimSource("enzyme", flatA)
	if err := e.RegisterSource(db, src, hounds.EnzymeTransformer{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Harness(db); err != nil {
		t.Fatal(err)
	}
	wantA, err := e.Document(db, target.ID)
	if err != nil {
		t.Fatal(err)
	}
	src.Publish(flatB)
	if _, err := e.Update(db); err != nil {
		t.Fatal(err)
	}
	wantB, err := e.Document(db, target.ID)
	if err != nil {
		t.Fatal(err)
	}
	if wantA == wantB {
		t.Fatal("the two revisions serialise identically; the test cannot see a torn read")
	}

	const updates = 40
	done := make(chan struct{})
	var reads, missing, torn int
	var firstTorn string
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			got, err := e.Document(db, target.ID)
			reads++
			switch {
			case err != nil && (strings.Contains(err.Error(), "no document") || strings.Contains(err.Error(), "not found")):
				missing++
			case err != nil:
				torn++
				if firstTorn == "" {
					firstTorn = err.Error()
				}
			case got != wantA && got != wantB:
				torn++
				if firstTorn == "" {
					firstTorn = got
				}
			}
		}
	}()
	for i := 0; i < updates; i++ {
		if i%2 == 0 {
			src.Publish(flatA)
		} else {
			src.Publish(flatB)
		}
		if _, err := e.Update(db); err != nil {
			close(done)
			wg.Wait()
			t.Fatalf("update %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()
	t.Logf("%d reads during %d updates: %d missing, %d torn", reads, updates, missing, torn)
	if torn > 0 {
		t.Fatalf("%d of %d reads matched neither revision; first:\n%s", torn, reads, firstTorn)
	}
}
