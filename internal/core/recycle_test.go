package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"xomatiq/internal/bio"
	"xomatiq/internal/hounds"
	"xomatiq/internal/sql"
)

// pagesOwned adds up what Stats attributes to tables: heap chains and
// one generation of B-tree per index.
func pagesOwned(st sql.Stats) (heap, index int) {
	for _, t := range st.Tables {
		heap += t.HeapPages
		for _, n := range t.IndexPages {
			index += n
		}
	}
	return heap, index
}

// TestHarnessThriceLeaksNothing loads the three paper databases one
// after the other, the way a warehouse is filled. Every harness rebuilds
// all nine trees; the file must end with the heaps, one generation of
// index and a small constant — not one generation per harness.
func TestHarnessThriceLeaksNothing(t *testing.T) {
	opts := bio.GenOptions{Seed: 42, Cdc6Rate: 0.02, ECLinkRate: 0.3}
	enzymes := bio.GenEnzymes(300, opts)
	ids := make([]string, len(enzymes))
	for i, en := range enzymes {
		ids[i] = en.ID
	}
	var embl, sprot bytes.Buffer
	if err := bio.WriteEMBL(&embl, bio.GenEMBL(150, "inv", ids, opts)); err != nil {
		t.Fatal(err)
	}
	if err := bio.WriteSProt(&sprot, bio.GenSProt(150, opts)); err != nil {
		t.Fatal(err)
	}
	e := openEngine(t)
	sources := []struct {
		db, flat string
		tr       hounds.Transformer
	}{
		{"hlx_enzyme.DEFAULT", enzymeFlat(t, enzymes), hounds.EnzymeTransformer{}},
		{"hlx_embl.inv", embl.String(), hounds.EMBLTransformer{}},
		{"hlx_sprot.all", sprot.String(), hounds.SProtTransformer{}},
	}
	for _, s := range sources {
		if err := e.RegisterSource(s.db, hounds.NewSimSource(s.db, s.flat), s.tr); err != nil {
			t.Fatal(err)
		}
	}
	// Once each, then the last one again: a re-harness leaves its old
	// rows' slots behind in the heaps (deletes do not shrink a heap), but
	// the index generation it supersedes must come back.
	for i, db := range []string{sources[0].db, sources[1].db, sources[2].db, sources[2].db, sources[2].db} {
		if _, err := e.Harness(db); err != nil {
			t.Fatal(err)
		}
		st := e.DB().Stats()
		heap, index := pagesOwned(st)
		// Header page, catalog heap, and the pages an earlier, smaller
		// generation freed that nothing has needed since.
		const slack = 8
		if st.FilePages > heap+index+slack || st.RetiredPages != 0 {
			t.Fatalf("after harness %d: file %d pages = %d heap + %d index + %d free + %d retired + ...; want at most %d",
				i+1, st.FilePages, heap, index, st.FreePages, st.RetiredPages, heap+index+slack)
		}
		if err := e.DB().CheckConsistency(); err != nil {
			t.Fatalf("after harness %d: %v", i+1, err)
		}
	}
}

// TestTxReadsRetiredTreesAcrossHarness: a transaction pinned before a
// harness keeps reading through the trees it froze — byte-identical
// answers while the harness retires them, loads and rebuilds — and their
// pages reach the free list only once it closes.
func TestTxReadsRetiredTreesAcrossHarness(t *testing.T) {
	e := openEngine(t)
	src := setupEnzyme(t, e, 200)
	ctx := context.Background()
	sess, err := e.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	tx, err := sess.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// A lookup by id goes through the value index; the scan goes through
	// the heaps' retained page versions.
	queries := []string{
		`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme WHERE $a//enzyme_id = "1.1.1.1" RETURN $a//enzyme_description`,
		countQuery,
	}
	read := func() [][][]string {
		t.Helper()
		var out [][][]string
		for _, q := range queries {
			res, err := tx.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Mode != "sql" {
				t.Fatalf("query ran in %s mode; the test is about the relational path", res.Mode)
			}
			out = append(out, res.Rows)
		}
		return out
	}
	pinned := read()
	if len(pinned[1]) != 201 {
		t.Fatalf("tx sees %d entries, want 201", len(pinned[1]))
	}
	_, treePages := pagesOwned(e.DB().Stats())

	src.Publish(enzymeFlat(t, bio.GenEnzymes(260, bio.GenOptions{Seed: 6})))
	if _, err := e.Harness("hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	st := e.DB().Stats()
	if st.RetiredPages != treePages || st.FreePages != 0 {
		t.Fatalf("after the harness, tx still open: %d retired, %d free; the old trees had %d pages",
			st.RetiredPages, st.FreePages, treePages)
	}
	if err := e.DB().CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if got := read(); !reflect.DeepEqual(got, pinned) {
		t.Fatalf("transaction's answers changed across the harness:\n got %v\nwant %v", got, pinned)
	}
	plain, err := e.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if n := txRows(t, plain, ctx, countQuery); n != 261 {
		t.Fatalf("a session outside the transaction sees %d entries, want 261", n)
	}

	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if st := e.DB().Stats(); st.RetiredPages != 0 || st.FreePages != treePages {
		t.Fatalf("after the transaction closed: %d retired, %d free, want 0 and %d", st.RetiredPages, st.FreePages, treePages)
	}
	if err := e.DB().CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
