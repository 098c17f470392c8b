package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"xomatiq/internal/bio"
	"xomatiq/internal/hounds"
	"xomatiq/internal/shred"
)

func TestPlanCacheLRUEviction(t *testing.T) {
	c := newPlanCache(2)
	d := &shred.Dict{}
	c.put("a", &planEntry{})
	c.put("b", &planEntry{})
	c.put("c", &planEntry{}) // evicts a
	if _, ok := c.get("a", d); ok {
		t.Error("a should have been evicted")
	}
	if _, ok := c.get("b", d); !ok {
		t.Error("b should survive")
	}
	c.put("d", &planEntry{}) // evicts c (b was just used)
	if _, ok := c.get("c", d); ok {
		t.Error("c should have been evicted")
	}
	if _, ok := c.get("b", d); !ok {
		t.Error("b should still survive")
	}
	st := c.stats()
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
}

func TestNormalizeQuery(t *testing.T) {
	a := normalizeQuery("FOR  $a IN\n\tdocument(\"db\")/r\nRETURN $a//x")
	b := normalizeQuery("FOR $a IN document(\"db\")/r RETURN $a//x")
	if a != b {
		t.Errorf("normalisation differs: %q vs %q", a, b)
	}
	// A literal's spaces are part of the question.
	if got, want := normalizeQuery("FOR  $a IN\n document('a  b')  "), "FOR $a IN document('a  b')"; got != want {
		t.Errorf("normalizeQuery = %q, want %q", got, want)
	}
}

// TestPlanCacheKeepsLiteralWhitespace: a literal's spaces are part of
// the question. Collapsing them let a warm cache answer a literal with
// two spaces from the plan of one with a single space: 1 row where a
// fresh engine finds none.
func TestPlanCacheKeepsLiteralWhitespace(t *testing.T) {
	const one = `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE $a//enzyme_description = "Peptidylglycine monooxygenase."
RETURN $a//enzyme_id`
	two := strings.Replace(one, "Peptidylglycine monooxygenase", "Peptidylglycine  monooxygenase", 1)

	warm := openEngine(t)
	setupEnzyme(t, warm, 20)
	first, err := warm.Query(one)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Rows) != 1 {
		t.Fatalf("%d rows for the one-space literal, want 1", len(first.Rows))
	}
	cold := openEngine(t)
	setupEnzyme(t, cold, 20)
	for name, e := range map[string]*Engine{"warm": warm, "cold": cold} {
		res, err := e.Query(two)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 0 {
			t.Errorf("%s engine: %d rows for the two-space literal, want 0", name, len(res.Rows))
		}
	}
}

const ketoneQuery = `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id`

func TestQueryPlanCacheHit(t *testing.T) {
	e := openEngine(t)
	setupEnzyme(t, e, 20)
	first, err := e.Query(ketoneQuery)
	if err != nil {
		t.Fatal(err)
	}
	// Reformatted whitespace still hits the same entry.
	second, err := e.Query("FOR $a IN  document(\"hlx_enzyme.DEFAULT\")/hlx_enzyme\n\tWHERE contains($a//catalytic_activity, \"ketone\")  RETURN $a//enzyme_id")
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Rows) != len(second.Rows) || second.Mode != ModeSQL {
		t.Fatalf("cached result differs: %d vs %d rows", len(first.Rows), len(second.Rows))
	}
	st := e.plans.stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestQueryPlanCacheCachesUnsupported(t *testing.T) {
	e := openEngine(t)
	setupEnzyme(t, e, 5)
	nativeQuery := `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE NOT contains($a//cofactor_list, "copper")
RETURN $a//enzyme_id`
	r1, err := e.Query(nativeQuery)
	if err != nil || r1.Mode != ModeNative {
		t.Fatalf("native query: %v, mode %v", err, r1.Mode)
	}
	r2, err := e.Query(nativeQuery)
	if err != nil || r2.Mode != ModeNative {
		t.Fatalf("cached native query: %v", err)
	}
	if st := e.plans.stats(); st.Hits != 1 {
		t.Errorf("unsupported shape not cached: %+v", st)
	}
}

// TestQueryPlanCacheInvalidation is the correctness-critical case: the
// translated SQL embeds keyword-prefilter doc ids, so a stale plan
// served after an update would silently miss the new documents.
func TestQueryPlanCacheInvalidation(t *testing.T) {
	e := openEngine(t)
	entries := bio.GenEnzymes(15, bio.GenOptions{Seed: 5})
	src := hounds.NewSimSource("expasy-enzyme", enzymeFlat(t, entries))
	if err := e.RegisterSource("hlx_enzyme.DEFAULT", src, hounds.EnzymeTransformer{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Harness("hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	q := `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//comment, "freshlyadded")
RETURN $a//enzyme_id`
	before, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Rows) != 0 {
		t.Fatalf("unexpected pre-update rows: %v", before.Rows)
	}
	// Publish an update that adds a matching entry, then rerun the SAME
	// query text: the cached plan must be invalidated, not reused.
	added := &bio.EnzymeEntry{
		ID:          "7.7.7.7",
		Description: []string{"New enzyme."},
		Comments:    []string{"freshlyadded curator note"},
	}
	src.Publish(enzymeFlat(t, append(append([]*bio.EnzymeEntry{}, entries...), added)))
	if _, err := e.Update("hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	after, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rows) != 1 || after.Rows[0][0] != "7.7.7.7" {
		t.Fatalf("post-update query = %v, want the new entry", after.Rows)
	}
	if st := e.plans.stats(); st.Invalidations == 0 {
		t.Errorf("expected an invalidation, stats = %+v", st)
	}
}

// TestPlanCacheServesEachDictionary: a transaction pinned before a load
// reads an older dictionary than the cached plan was translated
// against. It gets a translation of its own, which neither evicts the
// newer entry nor counts as an invalidation, and readers of the new
// state keep hitting the cache.
func TestPlanCacheServesEachDictionary(t *testing.T) {
	e := openEngine(t)
	src := setupEnzyme(t, e, 10)
	ctx := context.Background()
	const q = ketoneQuery
	sess, err := e.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	tx, err := sess.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	pinned := txRows(t, tx, ctx, q)
	src.Publish(enzymeFlat(t, bio.GenEnzymes(40, bio.GenOptions{Seed: 5})))
	if _, err := e.Harness("hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	fresh := txRows(t, e.defaultSess, ctx, q)
	base := e.plans.stats()
	for i := 0; i < 2; i++ {
		if n := txRows(t, tx, ctx, q); n != pinned {
			t.Fatalf("pinned transaction reads %d rows, want its snapshot's %d", n, pinned)
		}
		if n := txRows(t, e.defaultSess, ctx, q); n != fresh {
			t.Fatalf("a new statement reads %d rows, want %d", n, fresh)
		}
	}
	st := e.plans.stats()
	if hits, inv := st.Hits-base.Hits, st.Invalidations-base.Invalidations; hits != 2 || inv != 0 {
		t.Errorf("plan cache: %d hits and %d invalidations beside a pinned reader, want 2 and 0", hits, inv)
	}
}

func TestQueryContextCancelSQL(t *testing.T) {
	e := openEngine(t)
	setupEnzyme(t, e, 200)
	// A non-selective comparison: no keyword prefilter applies, so the
	// executor scans thousands of values rows and must notice the
	// cancelled context before materialising them.
	q := `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE $a//enzyme_id != "0.0.0.0"
RETURN $a//enzyme_id, $a//enzyme_description`
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.QueryContext(ctx, q)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled SQL query err = %v, want context.Canceled", err)
	}
	// The engine answers the same query on a live context.
	res, err := e.QueryContext(context.Background(), q)
	if err != nil || res.Mode != ModeSQL || len(res.Rows) == 0 {
		t.Fatalf("live query after cancel: %v, %v", res, err)
	}
}

func TestQueryContextCancelNative(t *testing.T) {
	e := openEngine(t)
	setupEnzyme(t, e, 300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.QueryContext(ctx, `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE NOT contains($a//cofactor_list, "copper")
RETURN $a//enzyme_id`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled native query err = %v, want context.Canceled", err)
	}
}

func TestSentinelErrors(t *testing.T) {
	e := openEngine(t)
	if _, err := e.Harness("nope"); !errors.Is(err, ErrNoSource) {
		t.Errorf("Harness err = %v, want ErrNoSource", err)
	}
	if _, err := e.Update("nope"); !errors.Is(err, ErrNoSource) {
		t.Errorf("Update err = %v, want ErrNoSource", err)
	}
	if _, err := e.DTDTree("nope"); !errors.Is(err, ErrUnknownDatabase) {
		t.Errorf("DTDTree err = %v, want ErrUnknownDatabase", err)
	}
	setupEnzyme(t, e, 2)
	src := hounds.NewSimSource("dup", "")
	err := e.RegisterSource("hlx_enzyme.DEFAULT", src, hounds.EnzymeTransformer{})
	if !errors.Is(err, ErrDuplicateSource) {
		t.Errorf("RegisterSource err = %v, want ErrDuplicateSource", err)
	}
}
