package core

import (
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"xomatiq/internal/bio"
	"xomatiq/internal/hounds"
	"xomatiq/internal/shred"
	"xomatiq/internal/xmldoc"
)

// openEngineWorkers opens an engine with a fixed ingest parallelism.
func openEngineWorkers(t *testing.T, workers int) *Engine {
	t.Helper()
	cfg := NewConfig(filepath.Join(t.TempDir(), "wh.db"))
	cfg.LoadWorkers = workers
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// dumpTable renders a deterministic snapshot of one shredded table.
func dumpTable(t *testing.T, e *Engine, table, orderBy string) string {
	t.Helper()
	rows, err := e.DB().Query(fmt.Sprintf("SELECT * FROM %s ORDER BY %s", table, orderBy))
	if err != nil {
		t.Fatalf("dump %s: %v", table, err)
	}
	var sb strings.Builder
	for _, r := range rows.Rows {
		for i, v := range r {
			if i > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(v.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestParallelLoadDeterminism loads the same ENZYME corpus with
// workers=1 (the sequential reference) and workers=4 and asserts the
// warehouses are identical: document ids, node ids, Dewey sort keys,
// the path dictionary, the value tables, keyword postings and query
// results. Run under -race this also exercises the pipeline's
// synchronisation.
func TestParallelLoadDeterminism(t *testing.T) {
	entries := bio.GenEnzymes(40, bio.GenOptions{Seed: 7, Cdc6Rate: 0.1, ECLinkRate: 0.3})
	flat := enzymeFlat(t, entries)

	engines := map[int]*Engine{}
	for _, w := range []int{1, 4} {
		e := openEngineWorkers(t, w)
		src := hounds.NewSimSource("expasy-enzyme", flat)
		if err := e.RegisterSource("hlx_enzyme.DEFAULT", src, hounds.EnzymeTransformer{}); err != nil {
			t.Fatal(err)
		}
		n, err := e.Harness("hlx_enzyme.DEFAULT")
		if err != nil {
			t.Fatal(err)
		}
		if n != 41 {
			t.Fatalf("workers=%d harnessed %d docs, want 41", w, n)
		}
		engines[w] = e
	}
	seq, par := engines[1], engines[4]

	for _, tc := range []struct{ table, orderBy string }{
		{"docs", "doc_id"},
		{"paths", "path_id"},
		{"nodes", "doc_id, node_id"},
		{"values_str", "doc_id, node_id"},
		{"values_num", "doc_id, node_id"},
		{"seq_data", "doc_id, node_id"},
	} {
		a, b := dumpTable(t, seq, tc.table, tc.orderBy), dumpTable(t, par, tc.table, tc.orderBy)
		if a != b {
			t.Errorf("table %s differs between workers=1 and workers=4:\nseq:\n%spar:\n%s", tc.table, a, b)
		}
	}

	// Keyword postings must match in content AND order (insertion order
	// feeds posting iteration).
	kseq := seq.Store().Dict(nil).Keywords("hlx_enzyme.DEFAULT")
	kpar := par.Store().Dict(nil).Keywords("hlx_enzyme.DEFAULT")
	if kseq.Len() != kpar.Len() || kseq.DistinctTokens() != kpar.DistinctTokens() {
		t.Errorf("keyword index differs: len %d vs %d, tokens %d vs %d",
			kseq.Len(), kpar.Len(), kseq.DistinctTokens(), kpar.DistinctTokens())
	}
	if fmt.Sprint(kseq.Lookup("ketone")) != fmt.Sprint(kpar.Lookup("ketone")) {
		t.Errorf("postings for %q differ", "ketone")
	}

	// Query results through both the SQL path and the native fallback
	// must agree across worker counts.
	const q = `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id, $a//enzyme_description`
	rseq, err := seq.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rpar, err := par.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if rseq.Mode != ModeSQL || rpar.Mode != ModeSQL {
		t.Fatalf("expected SQL mode, got %s / %s", rseq.Mode, rpar.Mode)
	}
	if fmt.Sprint(rseq.Rows) != fmt.Sprint(rpar.Rows) {
		t.Errorf("query rows differ:\nseq: %v\npar: %v", rseq.Rows, rpar.Rows)
	}
	// Native-evaluator cross-check: reconstructed documents must match
	// byte for byte, so the fallback sees the same corpus.
	dseq, err := seq.Document("hlx_enzyme.DEFAULT", entries[3].ID)
	if err != nil {
		t.Fatal(err)
	}
	dpar, err := par.Document("hlx_enzyme.DEFAULT", entries[3].ID)
	if err != nil {
		t.Fatal(err)
	}
	if dseq != dpar {
		t.Errorf("reconstructed document differs:\nseq:\n%s\npar:\n%s", dseq, dpar)
	}
}

// TestParallelUpdateDeterminism applies the same incremental delta with
// workers=1 and workers=4 and compares the resulting warehouses.
func TestParallelUpdateDeterminism(t *testing.T) {
	entries := bio.GenEnzymes(20, bio.GenOptions{Seed: 9})
	v1 := enzymeFlat(t, entries)
	v2entries := append([]*bio.EnzymeEntry{}, entries[2:]...)
	for i := 0; i < 3; i++ {
		v2entries = append(v2entries, &bio.EnzymeEntry{
			ID: fmt.Sprintf("9.9.9.%d", i), Description: []string{"new entry"}})
	}
	v2 := enzymeFlat(t, v2entries)

	dumps := map[int]string{}
	for _, w := range []int{1, 4} {
		e := openEngineWorkers(t, w)
		src := hounds.NewSimSource("expasy-enzyme", v1)
		if err := e.RegisterSource("hlx_enzyme.DEFAULT", src, hounds.EnzymeTransformer{}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Harness("hlx_enzyme.DEFAULT"); err != nil {
			t.Fatal(err)
		}
		src.Publish(v2)
		cs, err := e.Update("hlx_enzyme.DEFAULT")
		if err != nil {
			t.Fatal(err)
		}
		if cs.Empty() {
			t.Fatal("expected a non-empty change set")
		}
		dumps[w] = dumpTable(t, e, "docs", "doc_id") +
			dumpTable(t, e, "nodes", "doc_id, node_id") +
			dumpTable(t, e, "values_str", "doc_id, node_id")
	}
	if dumps[1] != dumps[4] {
		t.Error("update with workers=1 and workers=4 diverged")
	}
}

// TestLoadPublishesOneVersionPerChunk: each commit that changes the
// dictionary publishes one new version of it, and a publish that changes
// nothing publishes none. A harness commits once per chunk, with the
// clear in the first; so does an update, with its removals in the first
// and each modified entry's deletion in the chunk that reloads it; an
// update with an empty delta commits nothing, and the commits of the
// index rebuild and of ANALYZE change nothing. The version is the one
// published with the current snapshot.
func TestLoadPublishesOneVersionPerChunk(t *testing.T) {
	const db = "hlx_enzyme.DEFAULT"
	e := openEngineWorkers(t, 2)
	src := setupEnzyme(t, e, 5)
	version := func() uint64 {
		t.Helper()
		snap := e.DB().AcquireSnapshot()
		defer e.DB().ReleaseSnapshot(snap)
		if d := shred.DictOf(snap); d != e.Store().Dict(nil) {
			t.Fatalf("snapshot carries dictionary version %d, the store published %d", d.Version(), e.Store().Dict(nil).Version())
		}
		return e.Store().Dict(nil).Version()
	}
	for _, tc := range []struct {
		docs   int
		chunks uint64
	}{{10, 1}, {2*loadChunkSize + 1, 3}} {
		v0 := version()
		src.Publish(enzymeFlat(t, bio.GenEnzymes(tc.docs, bio.GenOptions{Seed: 5})))
		if _, err := e.Harness(db); err != nil {
			t.Fatal(err)
		}
		if d := version() - v0; d != tc.chunks {
			t.Errorf("a %d-document harness published %d dictionary versions, want one per chunk: %d", tc.docs, d, tc.chunks)
		}
	}
	entries := bio.GenEnzymes(2*loadChunkSize+1, bio.GenOptions{Seed: 5})
	next := slices.Clone(entries[3:])
	for i := range 3 {
		revised := *next[i]
		revised.Comments = append([]string{"Revised note."}, revised.Comments...)
		next[i] = &revised
		next = append(next, &bio.EnzymeEntry{ID: fmt.Sprintf("9.9.9.%d", i), Description: []string{"New entry."}})
	}
	src.Publish(enzymeFlat(t, next))
	v0 := version()
	cs, err := e.Update(db)
	if err != nil || len(cs.Removed) != 3 || len(cs.Modified) != 3 || len(cs.Added) != 3 {
		t.Fatalf("Update = %+v, %v; want 3 removed, 3 modified and 3 added entries", cs, err)
	}
	if d := version() - v0; d != 1 {
		t.Errorf("an update of %d entries published %d dictionary versions, want 1", cs.Total(), d)
	}
	v0 = version()
	if cs, err := e.Update(db); err != nil || !cs.Empty() {
		t.Fatalf("Update of an unchanged source = %+v, %v; want an empty delta", cs, err)
	}
	if err := e.Store().AnalyzeStats(); err != nil {
		t.Fatal(err)
	}
	if v := version(); v != v0 {
		t.Errorf("commits that change nothing moved the dictionary version %d -> %d", v0, v)
	}
}

// TestPlanCacheSurvivesLoad pins the plan-cache consequence: repeated
// queries miss once per commit that changes their database's dictionary
// entry — once for a one-chunk harness — never once per document.
func TestPlanCacheSurvivesLoad(t *testing.T) {
	const db = "hlx_enzyme.DEFAULT"
	const q = `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
RETURN $a//enzyme_id`
	e := openEngineWorkers(t, 2)
	src := setupEnzyme(t, e, 5)
	for i := 0; i < 3; i++ {
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	base := e.plans.stats()
	src.Publish(enzymeFlat(t, bio.GenEnzymes(50, bio.GenOptions{Seed: 5})))
	if _, err := e.Harness(db); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	st := e.plans.stats()
	if inv := st.Invalidations - base.Invalidations; inv != 1 {
		t.Errorf("queries after a 50-doc harness invalidated the plan cache %d times, want exactly 1", inv)
	}
	if hits := st.Hits - base.Hits; hits < 2 {
		t.Errorf("plan cache hit %d times after reload, want >= 2", hits)
	}
}

// invalidTail streams the ENZYME documents of its input and, once
// armed, ends the stream with one the DTD rejects: an hlx_enzyme root
// without its db_entry.
type invalidTail struct {
	hounds.EnzymeTransformer
	armed *bool
}

func (t invalidTail) TransformStream(r io.Reader, emit func(*xmldoc.Document) error) error {
	if err := t.EnzymeTransformer.TransformStream(r, emit); err != nil || !*t.armed {
		return err
	}
	return emit(&xmldoc.Document{Name: "invalid", Root: xmldoc.NewElement("hlx_enzyme")})
}

// TestHarnessFailureKeepsHarvest: a harness clears the previous harvest
// in the batch of its first chunk, so a load that fails before that
// chunk commits leaves the old harvest in place — rows, keyword index
// and delta base — instead of an empty warehouse.
func TestHarnessFailureKeepsHarvest(t *testing.T) {
	const db = "hlx_enzyme.DEFAULT"
	queries := []string{
		`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme RETURN $a//enzyme_id`,
		`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone") RETURN $a//enzyme_id`,
	}
	e := openEngineWorkers(t, 2)
	armed := false
	src := hounds.NewSimSource("expasy-enzyme", enzymeFlat(t, bio.GenEnzymes(20, bio.GenOptions{Seed: 5})))
	if err := e.RegisterSource(db, src, invalidTail{armed: &armed}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Harness(db); err != nil {
		t.Fatal(err)
	}
	render := func() []string {
		t.Helper()
		var out []string
		for _, q := range queries {
			res, err := e.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, renderIDs(res))
		}
		return out
	}
	before := render()
	if before[1] == "" {
		t.Fatal("keyword query matches nothing; test cannot see a lost keyword index")
	}

	// Fewer documents than one chunk: the invalid one fails validation on
	// a worker after the clear ran and before anything committed.
	armed = true
	src.Publish(enzymeFlat(t, bio.GenEnzymes(10, bio.GenOptions{Seed: 9})))
	if _, err := e.Harness(db); err == nil {
		t.Fatal("harness of an invalid document succeeded")
	}
	if n, err := e.DocCount(db); err != nil || n != 21 {
		t.Errorf("DocCount after failed harness = %d, %v; want 21", n, err)
	}
	if after := render(); strings.Join(after, "\n") != strings.Join(before, "\n") {
		t.Errorf("failed harness changed query results:\n got %q\nwant %q", after, before)
	}
	if err := e.DB().CheckConsistency(); err != nil {
		t.Errorf("consistency after failed harness: %v", err)
	}
	// Republished, the original source is the warehoused harvest again.
	armed = false
	src.Publish(enzymeFlat(t, bio.GenEnzymes(20, bio.GenOptions{Seed: 5})))
	if cs, err := e.Update(db); err != nil || !cs.Empty() {
		t.Errorf("Update after failed harness = %+v, %v; want an empty delta", cs, err)
	}
}
