package core

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"xomatiq/internal/bio"
	"xomatiq/internal/hounds"
)

// flatFile renders entries of any of the three formats to text.
func enzymeFlat(t *testing.T, entries []*bio.EnzymeEntry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := bio.WriteEnzyme(&buf, entries); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func openEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := Open(NewConfig(filepath.Join(t.TempDir(), "wh.db")))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// setupEnzyme registers a simulated ENZYME source and harnesses it.
func setupEnzyme(t *testing.T, e *Engine, n int) *hounds.SimSource {
	t.Helper()
	entries := bio.GenEnzymes(n, bio.GenOptions{Seed: 5})
	src := hounds.NewSimSource("expasy-enzyme", enzymeFlat(t, entries))
	if err := e.RegisterSource("hlx_enzyme.DEFAULT", src, hounds.EnzymeTransformer{}); err != nil {
		t.Fatal(err)
	}
	loaded, err := e.Harness("hlx_enzyme.DEFAULT")
	if err != nil {
		t.Fatal(err)
	}
	if loaded != n+1 {
		t.Fatalf("harnessed %d docs, want %d", loaded, n+1)
	}
	return src
}

func TestHarnessAndQuery(t *testing.T) {
	e := openEngine(t)
	setupEnzyme(t, e, 20)
	if got := e.Databases(); len(got) != 1 || got[0] != "hlx_enzyme.DEFAULT" {
		t.Errorf("Databases = %v", got)
	}
	n, err := e.DocCount("hlx_enzyme.DEFAULT")
	if err != nil || n != 21 {
		t.Errorf("DocCount = %d, %v", n, err)
	}
	// The Figure 9 sub-tree query runs through the SQL path.
	res, err := e.Query(`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id, $a//enzyme_description`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeSQL {
		t.Errorf("mode = %s, want sql", res.Mode)
	}
	if len(res.Rows) == 0 {
		t.Error("ketone query returned no rows")
	}
	if res.Columns[0] != "enzyme_id" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestNativeFallback(t *testing.T) {
	e := openEngine(t)
	setupEnzyme(t, e, 10)
	// Top-level NOT is outside the SQL subset.
	res, err := e.Query(`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE NOT contains($a//cofactor_list, "copper")
RETURN $a//enzyme_id`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeNative {
		t.Errorf("mode = %s, want native", res.Mode)
	}
	// Cross-check: SQL path for the positive form + native negative form
	// partition the corpus.
	pos, err := e.Query(`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//cofactor_list, "copper")
RETURN $a//enzyme_id`)
	if err != nil {
		t.Fatal(err)
	}
	total, _ := e.DocCount("hlx_enzyme.DEFAULT")
	distinct := func(rows [][]string) int {
		set := map[string]bool{}
		for _, r := range rows {
			set[r[0]] = true
		}
		return len(set)
	}
	if distinct(pos.Rows)+distinct(res.Rows) != total {
		t.Errorf("positive %d + negative %d != total %d",
			distinct(pos.Rows), distinct(res.Rows), total)
	}
}

func TestIncrementalUpdateAndTriggers(t *testing.T) {
	e := openEngine(t)
	entries := bio.GenEnzymes(15, bio.GenOptions{Seed: 8})
	src := hounds.NewSimSource("enzyme", enzymeFlat(t, entries))
	if err := e.RegisterSource("hlx_enzyme.DEFAULT", src, hounds.EnzymeTransformer{}); err != nil {
		t.Fatal(err)
	}
	var triggers []hounds.Trigger
	e.Bus().Subscribe(func(tr hounds.Trigger) { triggers = append(triggers, tr) })
	if _, err := e.Harness("hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	if len(triggers) != 1 || len(triggers[0].Change.Added) != 16 {
		t.Fatalf("harness trigger = %+v", triggers)
	}

	// Publish an update: remove one entry, modify one, add one.
	mod := make([]*bio.EnzymeEntry, len(entries))
	copy(mod, entries)
	removed := mod[2].ID
	mod = append(mod[:2], mod[3:]...)
	changed := *mod[4]
	changed.Comments = append([]string{"Updated curator note."}, changed.Comments...)
	mod[4] = &changed
	added := &bio.EnzymeEntry{ID: "7.7.7.7", Description: []string{"Brand new enzyme."}}
	mod = append(mod, added)
	src.Publish(enzymeFlat(t, mod))

	cs, err := e.Update("hlx_enzyme.DEFAULT")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Added) != 1 || cs.Added[0] != "7.7.7.7" {
		t.Errorf("Added = %v", cs.Added)
	}
	if len(cs.Modified) != 1 || cs.Modified[0] != changed.ID {
		t.Errorf("Modified = %v", cs.Modified)
	}
	if len(cs.Removed) != 1 || cs.Removed[0] != removed {
		t.Errorf("Removed = %v", cs.Removed)
	}
	if len(triggers) != 2 {
		t.Fatalf("triggers = %d", len(triggers))
	}
	// Warehouse state reflects the delta.
	n, _ := e.DocCount("hlx_enzyme.DEFAULT")
	if n != 16 {
		t.Errorf("DocCount after update = %d", n)
	}
	if _, err := e.Document("hlx_enzyme.DEFAULT", removed); err == nil {
		t.Error("removed entry still reconstructable")
	}
	xml, err := e.Document("hlx_enzyme.DEFAULT", "7.7.7.7")
	if err != nil || !strings.Contains(xml, "Brand new enzyme.") {
		t.Errorf("added entry = %q, %v", xml, err)
	}
	xml, err = e.Document("hlx_enzyme.DEFAULT", changed.ID)
	if err != nil || !strings.Contains(xml, "Updated curator note.") {
		t.Error("modified entry not updated")
	}
	// Queries see the delta.
	res, err := e.Query(`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//comment, "curator")
RETURN $a//enzyme_id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != changed.ID {
		t.Errorf("post-update query = %v", res.Rows)
	}

	// No-op update publishes nothing.
	before := len(triggers)
	cs, err = e.Update("hlx_enzyme.DEFAULT")
	if err != nil || !cs.Empty() {
		t.Errorf("no-op update: %+v, %v", cs, err)
	}
	if len(triggers) != before {
		t.Error("no-op update fired a trigger")
	}
}

func TestDTDTreeAndDocument(t *testing.T) {
	e := openEngine(t)
	setupEnzyme(t, e, 3)
	tree, err := e.DTDTree("hlx_enzyme.DEFAULT")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"hlx_enzyme", "db_entry", "enzyme_id", "@mim_id"} {
		if !strings.Contains(tree, frag) {
			t.Errorf("tree missing %q:\n%s", frag, tree)
		}
	}
	if _, err := e.DTDTree("nope"); err == nil {
		t.Error("unknown db should fail")
	}
	xml, err := e.Document("hlx_enzyme.DEFAULT", "1.14.17.3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(xml, "<enzyme_id>1.14.17.3</enzyme_id>") {
		t.Errorf("document = %s", xml)
	}
}

func TestResultRenderers(t *testing.T) {
	e := openEngine(t)
	setupEnzyme(t, e, 5)
	res, err := e.Query(`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE $a//enzyme_id = "1.14.17.3"
RETURN $a//enzyme_id, $a//enzyme_description`)
	if err != nil {
		t.Fatal(err)
	}
	xml := res.XML()
	if !strings.Contains(xml, "<enzyme_id>1.14.17.3</enzyme_id>") {
		t.Errorf("XML = %s", xml)
	}
	table := res.Table()
	if !strings.Contains(table, "enzyme_id") || !strings.Contains(table, "1.14.17.3") {
		t.Errorf("table = %s", table)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.db")
	cfg := NewConfig(path)
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries := bio.GenEnzymes(10, bio.GenOptions{Seed: 13})
	src := hounds.NewSimSource("enzyme", enzymeFlat(t, entries))
	if err := e.RegisterSource("hlx_enzyme.DEFAULT", src, hounds.EnzymeTransformer{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Harness("hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	n, err := e2.DocCount("hlx_enzyme.DEFAULT")
	if err != nil || n != 11 {
		t.Fatalf("reopened DocCount = %d, %v", n, err)
	}
	// Query works without re-registering the source (keyword index and
	// DTD were rebuilt from the warehouse).
	res, err := e2.Query(`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a, "copper", any)
RETURN $a//enzyme_id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("keyword query after reopen returned nothing")
	}
	if _, err := e2.DTDTree("hlx_enzyme.DEFAULT"); err != nil {
		t.Errorf("DTD lost across reopen: %v", err)
	}
}

func TestMultiDatabaseJoin(t *testing.T) {
	e := openEngine(t)
	opts := bio.GenOptions{Seed: 23, ECLinkRate: 0.5}
	enz := bio.GenEnzymes(10, opts)
	var ids []string
	for _, en := range enz {
		ids = append(ids, en.ID)
	}
	esrc := hounds.NewSimSource("enzyme", enzymeFlat(t, enz))
	if err := e.RegisterSource("hlx_enzyme.DEFAULT", esrc, hounds.EnzymeTransformer{}); err != nil {
		t.Fatal(err)
	}
	var ebuf bytes.Buffer
	if err := bio.WriteEMBL(&ebuf, bio.GenEMBL(40, "inv", ids, opts)); err != nil {
		t.Fatal(err)
	}
	msrc := hounds.NewSimSource("embl", ebuf.String())
	if err := e.RegisterSource("hlx_embl.inv", msrc, hounds.EMBLTransformer{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Harness("hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Harness("hlx_embl.inv"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(`FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
    $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a//qualifier[@qualifier_type = "EC number"] = $b/enzyme_id
RETURN $Accession_Number = $a//embl_accession_number,
       $Accession_Description = $a//description`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeSQL || len(res.Rows) == 0 {
		t.Errorf("join: mode=%s rows=%d", res.Mode, len(res.Rows))
	}
	if res.Columns[0] != "Accession_Number" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestErrorPaths(t *testing.T) {
	e := openEngine(t)
	if _, err := e.Harness("unregistered"); err == nil {
		t.Error("harness of unregistered db should fail")
	}
	if _, err := e.Update("unregistered"); err == nil {
		t.Error("update of unregistered db should fail")
	}
	if _, err := e.Query(`NOT A QUERY`); err == nil {
		t.Error("bad query should fail")
	}
	if _, err := e.Query(`FOR $a IN document("missing")/r RETURN $a//x`); err == nil {
		t.Error("query on missing db should fail")
	}
	setupEnzyme(t, e, 2)
	src := hounds.NewSimSource("dup", "")
	if err := e.RegisterSource("hlx_enzyme.DEFAULT", src, hounds.EnzymeTransformer{}); err == nil {
		t.Error("duplicate registration should fail")
	}
}

func TestEngineExplainStatsCompact(t *testing.T) {
	e := openEngine(t)
	setupEnzyme(t, e, 10)
	plan, err := e.Explain(`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id`)
	if err != nil {
		t.Fatal(err)
	}
	// The cost-based planner may lead with whichever table it estimates
	// smallest, so assert the nodes table shows up with an estimate rather
	// than pinning it as the driving scan.
	if !strings.Contains(plan, "SQL:") || !strings.Contains(plan, "nodes as ") ||
		!strings.Contains(plan, "(est rows=") {
		t.Errorf("plan = %s", plan)
	}
	// Untranslatable queries report the native fallback.
	plan, err = e.Explain(`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE NOT contains($a//cofactor, "copper")
RETURN $a//enzyme_id`)
	if err != nil || !strings.Contains(plan, "native evaluation") {
		t.Errorf("fallback plan = %q, %v", plan, err)
	}

	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	phys, whs := snap.DB, snap.Warehouses
	if phys.FilePages < 2 || len(whs) != 1 || whs[0].Docs != 11 || whs[0].Paths == 0 {
		t.Errorf("stats = %+v %+v", phys, whs)
	}

	dst := filepath.Join(t.TempDir(), "compacted.db")
	if err := e.Compact(dst); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(NewConfig(dst))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	n, err := e2.DocCount("hlx_enzyme.DEFAULT")
	if err != nil || n != 11 {
		t.Fatalf("compacted DocCount = %d, %v", n, err)
	}
	res, err := e2.Query(`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE $a//enzyme_id = "1.14.17.3" RETURN $a//enzyme_description`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("query on compacted warehouse = %v, %v", res, err)
	}
	// Reconstruction still exact post-compaction.
	xml, err := e2.Document("hlx_enzyme.DEFAULT", "1.14.17.3")
	if err != nil || !strings.Contains(xml, "Peptidylglycine monooxygenase") {
		t.Errorf("compacted document = %v", err)
	}
}

// failingSource simulates a remote that errors on fetch.
type failingSource struct{}

func (failingSource) Name() string { return "failing" }
func (failingSource) Fetch() (io.ReadCloser, string, error) {
	return nil, "", fmt.Errorf("connection refused")
}

func TestHarnessFetchFailure(t *testing.T) {
	e := openEngine(t)
	if err := e.RegisterSource("db", failingSource{}, hounds.EnzymeTransformer{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Harness("db"); err == nil {
		t.Error("harness with failing fetch should error")
	}
	if _, err := e.Update("db"); err == nil {
		t.Error("update with failing fetch should error")
	}
}

func TestHarnessMalformedFlatFile(t *testing.T) {
	e := openEngine(t)
	src := hounds.NewSimSource("bad", "ZZ   not a valid enzyme file\n//\n")
	if err := e.RegisterSource("db", src, hounds.EnzymeTransformer{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Harness("db"); err == nil {
		t.Error("harness of malformed file should error")
	}
	// Warehouse unchanged and usable.
	if n, err := e.DocCount("db"); err != nil || n != 0 {
		t.Errorf("DocCount = %d, %v", n, err)
	}
}

func TestNativeFallbackCorpusReconstruction(t *testing.T) {
	// After reopening, a native-fallback query rebuilds the documents
	// from the warehouse.
	path := filepath.Join(t.TempDir(), "cold.db")
	e, err := Open(NewConfig(path))
	if err != nil {
		t.Fatal(err)
	}
	entries := bio.GenEnzymes(8, bio.GenOptions{Seed: 31})
	src := hounds.NewSimSource("enzyme", enzymeFlat(t, entries))
	if err := e.RegisterSource("hlx_enzyme.DEFAULT", src, hounds.EnzymeTransformer{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Harness("hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(NewConfig(path))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	res, err := e2.Query(`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE NOT contains($a//enzyme_description, "nonexistentword")
RETURN $a//enzyme_id`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeNative {
		t.Fatalf("mode = %s", res.Mode)
	}
	if len(res.Rows) != 9 {
		t.Errorf("rows = %d, want 9 (all entries)", len(res.Rows))
	}
}

// TestRepeatedEntryRefused: a harvest that carries one entry name twice
// cannot be diffed by name. Update refuses it before any write, every
// time; Harness fails on it the way it fails on a DTD-invalid entry.
// Both errors name the database and the entry.
func TestRepeatedEntryRefused(t *testing.T) {
	e := openEngine(t)
	src := setupEnzyme(t, e, 5)
	const dbName = "hlx_enzyme.DEFAULT"
	entries := bio.GenEnzymes(5, bio.GenOptions{Seed: 5})
	dup := *entries[3]
	dup.Comments = append(append([]string{}, dup.Comments...), "A second copy.")
	src.Publish(enzymeFlat(t, append(entries, &dup)))

	want, err := e.Document(dbName, dup.ID)
	if err != nil {
		t.Fatal(err)
	}
	unchanged := func(stage string) {
		t.Helper()
		if n, err := e.DocCount(dbName); err != nil || n != 6 {
			t.Errorf("%s: DocCount = %d, %v; want 6", stage, n, err)
		}
		if got, err := e.Document(dbName, dup.ID); err != nil || got != want {
			t.Errorf("%s: entry %s = %v\n%s\nwant\n%s", stage, dup.ID, err, got, want)
		}
	}
	refused := func(stage string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), dbName) || !strings.Contains(err.Error(), fmt.Sprintf("%q", dup.ID)) {
			t.Errorf("%s: err = %v; want a refusal naming %s and entry %q", stage, err, dbName, dup.ID)
		}
	}
	for i := 0; i < 2; i++ {
		epoch := e.DB().CurrentEpoch()
		cs, err := e.Update(dbName)
		refused(fmt.Sprintf("update %d (%+v)", i, cs), err)
		if now := e.DB().CurrentEpoch(); now != epoch {
			t.Errorf("update %d committed (epoch %d -> %d) before refusing", i, epoch, now)
		}
		unchanged(fmt.Sprintf("after update %d", i))
	}
	n, err := e.Harness(dbName)
	refused(fmt.Sprintf("harness (%d docs)", n), err)
	unchanged("after harness")
}

// TestUpdateAfterReopenCostsTheSame: the same delta (one entry removed,
// one modified) applied to two identical warehouses, one of them closed
// and reopened first, costs the same B-tree searches. Update diffs by the
// digests stored at load time, so a reopen leaves it nothing to rebuild.
func TestUpdateAfterReopenCostsTheSame(t *testing.T) {
	const dbName = "hlx_enzyme.DEFAULT"
	entries := bio.GenEnzymes(50, bio.GenOptions{Seed: 5})
	delta := append(append([]*bio.EnzymeEntry{}, entries[:10]...), entries[11:]...)
	changed := *delta[20]
	changed.Comments = append([]string{"Updated curator note."}, changed.Comments...)
	delta[20] = &changed

	dir := t.TempDir()
	open := func(name string) (*Engine, *hounds.SimSource) {
		t.Helper()
		e, err := Open(NewConfig(filepath.Join(dir, name)))
		if err != nil {
			t.Fatal(err)
		}
		src := hounds.NewSimSource("expasy-enzyme", enzymeFlat(t, entries))
		if err := e.RegisterSource(dbName, src, hounds.EnzymeTransformer{}); err != nil {
			t.Fatal(err)
		}
		return e, src
	}
	harness := func(e *Engine) {
		t.Helper()
		if _, err := e.Harness(dbName); err != nil {
			t.Fatal(err)
		}
	}
	update := func(e *Engine, src *hounds.SimSource) uint64 {
		t.Helper()
		src.Publish(enzymeFlat(t, delta))
		before := e.Registry().Index.BTreeSearches.Load()
		cs, err := e.Update(dbName)
		if err != nil || len(cs.Removed) != 1 || len(cs.Modified) != 1 || len(cs.Added) != 0 {
			t.Fatalf("update = %+v, %v; want one removal and one modification", cs, err)
		}
		return e.Registry().Index.BTreeSearches.Load() - before
	}

	direct, src := open("direct.db")
	defer direct.Close()
	harness(direct)
	want := update(direct, src)

	first, _ := open("reopened.db")
	harness(first)
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, src := open("reopened.db")
	defer reopened.Close()
	if got := update(reopened, src); got != want {
		t.Errorf("update after a reopen made %d B-tree searches, without one %d", got, want)
	}
	t.Logf("B-tree searches per update: %d", want)
}
