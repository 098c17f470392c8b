package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"xomatiq/internal/bio"
	"xomatiq/internal/hounds"
	"xomatiq/internal/sql"
)

// TestStatsConcurrentWithLoads drives the optimizer-statistics path the
// same way TestReadPathEpochConsistency drives the catalog epoch: SQL
// planning (which reads per-table stats) races Harness/Update loads
// (which re-ANALYZE and swap the stats snapshots in). Planning must
// never observe a torn snapshot — every plan keeps printing well-formed
// estimates — and query results must always match exactly one source
// version. Run with -race: a stats swap outside db.mu would show here.
func TestStatsConcurrentWithLoads(t *testing.T) {
	e := openEngine(t)
	const db = "hlx_enzyme.DEFAULT"
	// Versions differ by ONE document: Update commits its deletions
	// before its loads, so a multi-document delta would expose a
	// committed state that is neither version. With a single-doc delta
	// every observable state is exactly version A or version B (a
	// harness commits its clear with its first chunk), and the test
	// isolates what it is after: stats reads racing loads.
	entriesA := bio.GenEnzymes(25, bio.GenOptions{Seed: 23})
	entriesB := append(append([]*bio.EnzymeEntry{}, entriesA...),
		&bio.EnzymeEntry{ID: "8.8.8.1", Description: []string{"Stats enzyme one."}})
	flatA, flatB := enzymeFlat(t, entriesA), enzymeFlat(t, entriesB)
	src := hounds.NewSimSource("enzyme", flatA)
	if err := e.RegisterSource(db, src, hounds.EnzymeTransformer{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Harness(db); err != nil {
		t.Fatal(err)
	}

	// The load pipeline must have analyzed: shredded-table plans carry
	// estimates immediately after harnessing.
	plan, err := e.DB().Explain(`SELECT node_id FROM nodes WHERE db = 'hlx_enzyme.DEFAULT'`, sql.ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "(est rows=") {
		t.Fatalf("post-harness plan has no estimates (load pipeline did not analyze?):\n%s", plan)
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

	const readers = 4
	const iterations = 12
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 2*readers*iterations+iterations)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				// Plan against the live stats snapshot. The estimate for
				// the constant db column flips with each re-ANALYZE; the
				// line must always be present and well-formed.
				p, err := e.DB().Explain(`SELECT val FROM values_str WHERE db = 'hlx_enzyme.DEFAULT' AND path_id = 3`, sql.ExecOpts{})
				if err != nil {
					errs <- fmt.Errorf("reader %d explain: %w", r, err)
					return
				}
				if !strings.Contains(p, "(est rows=") {
					errs <- fmt.Errorf("reader %d: plan lost its estimates:\n%s", r, p)
					return
				}
				res, err := e.QueryContext(ctx, query)
				if err != nil {
					errs <- fmt.Errorf("reader %d query: %w", r, err)
					return
				}
				if got := renderIDs(res); got != wantA && got != wantB {
					errs <- fmt.Errorf("reader %d: result matches neither version:\n got %s", r, got)
					return
				}
			}
		}(r)
	}
	// Writer: both load paths re-ANALYZE on commit, racing the planners.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iterations; i++ {
			if i%2 == 0 {
				src.Publish(flatA)
			} else {
				src.Publish(flatB)
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

	// Settled state: the estimate for the doc-count query must reflect
	// the final load, i.e. stats were refreshed, not left at version A.
	final := mustRender()
	if final != wantA && final != wantB {
		t.Errorf("final state matches neither version:\n%s", final)
	}
	if err := e.DB().CheckConsistency(); err != nil {
		t.Errorf("post-churn consistency: %v", err)
	}
}
