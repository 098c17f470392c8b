package xq2sql

import (
	"bytes"
	"errors"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"xomatiq/internal/bio"
	"xomatiq/internal/hounds"
	"xomatiq/internal/nativexml"
	"xomatiq/internal/shred"
	"xomatiq/internal/sql"
	"xomatiq/internal/xmldoc"
	"xomatiq/internal/xq"
)

// fixture builds a warehouse (shredded store) and the equivalent
// in-memory corpus, so every query can be cross-validated between the
// XQ2SQL translation and the native evaluator.
type fixture struct {
	store  *shred.Store
	corpus nativexml.Corpus
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	db, err := sql.Open(filepath.Join(t.TempDir(), "wh.db"), sql.Options{PoolPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	store, err := shred.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{store: store, corpus: nativexml.Corpus{}}
}

func (fx *fixture) loadDocs(t *testing.T, dbName string, seqPaths []string, docs []*xmldoc.Document) {
	t.Helper()
	if err := fx.store.RegisterDB(dbName, seqPaths, ""); err != nil {
		t.Fatal(err)
	}
	// The ingest pipeline's stages on one goroutine: one chunk in one
	// batch, whose commit publishes its paths and keyword postings.
	sh, err := fx.store.NewShredder(dbName)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]*shred.DocBatch, len(docs))
	for i, d := range docs {
		chunk[i] = sh.Shred(fx.store.ReserveDocID(dbName), d)
	}
	if err := fx.store.DB.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := fx.store.InsertChunk(dbName, chunk); err != nil {
		t.Fatal(err)
	}
	if err := fx.store.DB.Commit(); err != nil {
		t.Fatal(err)
	}
	fx.corpus[dbName] = docs
}

// loadPaperCorpus loads the three paper databases at small scale.
func loadPaperCorpus(t *testing.T, fx *fixture, nEnz, nEMBL, nSProt int) {
	t.Helper()
	opts := bio.GenOptions{Seed: 99, Cdc6Rate: 0.2, ECLinkRate: 0.5}
	enz := bio.GenEnzymes(nEnz, opts)
	var ids []string
	for _, e := range enz {
		ids = append(ids, e.ID)
	}
	var buf bytes.Buffer
	if err := bio.WriteEnzyme(&buf, enz); err != nil {
		t.Fatal(err)
	}
	docs, err := hounds.TransformAndValidate(hounds.EnzymeTransformer{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	fx.loadDocs(t, "hlx_enzyme.DEFAULT", nil, docs)

	if nEMBL > 0 {
		buf.Reset()
		if err := bio.WriteEMBL(&buf, bio.GenEMBL(nEMBL, "inv", ids, opts)); err != nil {
			t.Fatal(err)
		}
		if docs, err = hounds.TransformAndValidate(hounds.EMBLTransformer{}, &buf); err != nil {
			t.Fatal(err)
		}
		fx.loadDocs(t, "hlx_embl.inv", (hounds.EMBLTransformer{}).SequencePaths(), docs)
	}
	if nSProt > 0 {
		buf.Reset()
		if err := bio.WriteSProt(&buf, bio.GenSProt(nSProt, opts)); err != nil {
			t.Fatal(err)
		}
		if docs, err = hounds.TransformAndValidate(hounds.SProtTransformer{}, &buf); err != nil {
			t.Fatal(err)
		}
		fx.loadDocs(t, "hlx_sprot.all", (hounds.SProtTransformer{}).SequencePaths(), docs)
	}
}

// runBoth executes a query through both engines and returns sorted,
// canonical row strings from each.
func runBoth(t *testing.T, fx *fixture, src string, useIndex bool) (sqlRows, nativeRows []string) {
	t.Helper()
	q := xq.MustParse(src)
	tr, err := Translate(fx.store, q, Options{UseKeywordIndex: useIndex})
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	res, err := fx.store.DB.Query(tr.SQL)
	if err != nil {
		t.Fatalf("execute: %v\nSQL: %s", err, tr.SQL)
	}
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		sqlRows = append(sqlRows, strings.Join(parts, "|"))
	}
	nres, err := nativexml.Eval(fx.corpus, q)
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	for _, row := range nres.Rows {
		nativeRows = append(nativeRows, strings.Join(row, "|"))
	}
	sort.Strings(sqlRows)
	sort.Strings(nativeRows)
	return sqlRows, nativeRows
}

// assertAgree runs both engines and requires identical results.
func assertAgree(t *testing.T, fx *fixture, src string, useIndex bool, wantNonEmpty bool) []string {
	t.Helper()
	got, want := runBoth(t, fx, src, useIndex)
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("engines disagree on %q\nsql:    %v\nnative: %v", src, got, want)
	}
	if wantNonEmpty && len(got) == 0 {
		t.Errorf("query %q returned no rows; workload broken", src)
	}
	return got
}

func TestFigure9Agreement(t *testing.T) {
	fx := newFixture(t)
	loadPaperCorpus(t, fx, 40, 0, 0)
	src := `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id, $a//enzyme_description`
	for _, useIndex := range []bool{false, true} {
		assertAgree(t, fx, src, useIndex, true)
	}
}

func TestFigure8Agreement(t *testing.T) {
	fx := newFixture(t)
	loadPaperCorpus(t, fx, 3, 20, 20)
	src := `FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
    $b IN document("hlx_sprot.all")/hlx_n_sequence
WHERE contains($a, "cdc6", any) AND contains($b, "cdc6", any)
RETURN $b//sprot_accession_number, $a//embl_accession_number`
	for _, useIndex := range []bool{false, true} {
		assertAgree(t, fx, src, useIndex, true)
	}
}

func TestFigure11Agreement(t *testing.T) {
	fx := newFixture(t)
	loadPaperCorpus(t, fx, 8, 30, 0)
	src := `FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
    $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a//qualifier[@qualifier_type = "EC number"] = $b/enzyme_id
RETURN $Accession_Number = $a//embl_accession_number,
       $Accession_Description = $a//description`
	rows := assertAgree(t, fx, src, false, true)
	// Column labels survive translation.
	q := xq.MustParse(src)
	tr, err := Translate(fx.store, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Columns[0] != "Accession_Number" {
		t.Errorf("columns = %v", tr.Columns)
	}
	_ = rows
}

func TestNumericComparisonAgreement(t *testing.T) {
	fx := newFixture(t)
	docs := []*xmldoc.Document{
		named(xmldoc.MustParse(`<ann><name>a</name><len>900</len></ann>`), "a"),
		named(xmldoc.MustParse(`<ann><name>b</name><len>90</len></ann>`), "b"),
		named(xmldoc.MustParse(`<ann><name>c</name><len>1000</len></ann>`), "c"),
	}
	fx.loadDocs(t, "anns", nil, docs)
	rows := assertAgree(t, fx,
		`FOR $x IN document("anns")/ann WHERE $x/len > 500 RETURN $x/name`, false, true)
	if strings.Join(rows, ";") != "a;c" {
		t.Errorf("numeric comparison = %v (string ordering would drop c)", rows)
	}
}

func named(d *xmldoc.Document, name string) *xmldoc.Document {
	d.Name = name
	return d
}

func TestElementPredicateAgreement(t *testing.T) {
	fx := newFixture(t)
	docs := []*xmldoc.Document{
		named(xmldoc.MustParse(`<r><n>first</n><e><id>2</id>two</e></r>`), "d0"),
		named(xmldoc.MustParse(`<r><n>second</n><e><id>1</id>uno</e></r>`), "d1"),
	}
	fx.loadDocs(t, "db", nil, docs)
	// Child-element predicate on the final step (the translatable form):
	// documents whose e has an id child equal to 2 and direct text "two".
	rows := assertAgree(t, fx,
		`FOR $x IN document("db")/r WHERE $x/e[id = "2"] = "two" RETURN $x/n`, false, true)
	if strings.Join(rows, ";") != "first" {
		t.Errorf("element predicate = %v", rows)
	}
	// Predicates on non-final steps are outside the single-SELECT subset;
	// the engine layer falls back to the native evaluator for them.
	_, err := Translate(fx.store, xq.MustParse(
		`FOR $x IN document("db")/r WHERE $x/e[id = "2"]/v = "two" RETURN $x//v`), Options{})
	if !errors.Is(err, ErrUnsupported) {
		t.Errorf("non-final-step predicate error = %v, want ErrUnsupported", err)
	}
}

func TestOrderOpsAgreement(t *testing.T) {
	fx := newFixture(t)
	docs := []*xmldoc.Document{
		named(xmldoc.MustParse(`<r><n>doc0</n><x>1</x><y>2</y></r>`), "d0"),
		named(xmldoc.MustParse(`<r><n>doc1</n><y>1</y><x>2</x></r>`), "d1"),
	}
	fx.loadDocs(t, "db", nil, docs)
	rows := assertAgree(t, fx,
		`FOR $a IN document("db")/r WHERE $a/x BEFORE $a/y RETURN $a/n`, false, true)
	if strings.Join(rows, ";") != "doc0" {
		t.Errorf("BEFORE = %v", rows)
	}
	rows = assertAgree(t, fx,
		`FOR $a IN document("db")/r WHERE $a/x AFTER $a/y RETURN $a/n`, false, true)
	if strings.Join(rows, ";") != "doc1" {
		t.Errorf("AFTER = %v", rows)
	}
}

func TestOrSamePathAgreement(t *testing.T) {
	fx := newFixture(t)
	docs := []*xmldoc.Document{
		named(xmldoc.MustParse(`<r><k>alpha</k></r>`), "d0"),
		named(xmldoc.MustParse(`<r><k>beta</k></r>`), "d1"),
		named(xmldoc.MustParse(`<r><k>gamma</k></r>`), "d2"),
	}
	fx.loadDocs(t, "db", nil, docs)
	rows := assertAgree(t, fx, `FOR $x IN document("db")/r
WHERE contains($x/k, "alpha") OR contains($x/k, "beta")
RETURN $x/k`, false, true)
	if strings.Join(rows, ";") != "alpha;beta" {
		t.Errorf("OR = %v", rows)
	}
}

func TestPathToPathWithinBinding(t *testing.T) {
	fx := newFixture(t)
	docs := []*xmldoc.Document{
		named(xmldoc.MustParse(`<r><a>same</a><b>same</b><n>eq</n></r>`), "d0"),
		named(xmldoc.MustParse(`<r><a>x</a><b>y</b><n>ne</n></r>`), "d1"),
	}
	fx.loadDocs(t, "db", nil, docs)
	rows := assertAgree(t, fx,
		`FOR $x IN document("db")/r WHERE $x/a = $x/b RETURN $x/n`, false, true)
	if strings.Join(rows, ";") != "eq" {
		t.Errorf("path=path = %v", rows)
	}
}

func TestAttributeReturn(t *testing.T) {
	fx := newFixture(t)
	loadPaperCorpus(t, fx, 5, 0, 0)
	assertAgree(t, fx, `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
RETURN $a//reference/@swissprot_accession_number`, false, true)
}

func TestUnsupportedShapesFallBack(t *testing.T) {
	fx := newFixture(t)
	loadPaperCorpus(t, fx, 3, 0, 0)
	bad := []string{
		// top-level NOT
		`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE NOT contains($a//cofactor, "copper") RETURN $a//enzyme_id`,
		// OR over different paths
		`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//cofactor, "copper") OR contains($a//comment, "enzyme")
RETURN $a//enzyme_id`,
	}
	for _, src := range bad {
		_, err := Translate(fx.store, xq.MustParse(src), Options{})
		if !errors.Is(err, ErrUnsupported) {
			t.Errorf("Translate(%q) error = %v, want ErrUnsupported", src, err)
		}
	}
}

func TestMissingPathYieldsEmpty(t *testing.T) {
	fx := newFixture(t)
	loadPaperCorpus(t, fx, 3, 0, 0)
	got, want := runBoth(t, fx, `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//nonexistent_element, "x") RETURN $a//enzyme_id`, false)
	if len(got) != 0 || len(want) != 0 {
		t.Errorf("missing path: sql=%v native=%v", got, want)
	}
}

func TestKeywordIndexPrefilterEquivalence(t *testing.T) {
	// The doc prefilter must never change results, only speed.
	fx := newFixture(t)
	loadPaperCorpus(t, fx, 30, 30, 30)
	queries := []string{
		`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a, "copper", any) RETURN $a//enzyme_id`,
		`FOR $a IN document("hlx_sprot.all")/hlx_n_sequence
WHERE contains($a, "cdc6", any) RETURN $a//sprot_accession_number`,
		`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone") RETURN $a//enzyme_id`,
	}
	for _, src := range queries {
		withIx, _ := runBoth(t, fx, src, true)
		without, _ := runBoth(t, fx, src, false)
		if strings.Join(withIx, ";") != strings.Join(without, ";") {
			t.Errorf("index prefilter changed results for %q:\nwith:    %v\nwithout: %v",
				src, withIx, without)
		}
	}
}

// TestKeywordPrefilterDeterministic: the prefilter's doc-id list is
// emitted in ascending order, so translating one query against one
// dictionary always gives the same SQL text.
func TestKeywordPrefilterDeterministic(t *testing.T) {
	fx := newFixture(t)
	loadPaperCorpus(t, fx, 300, 0, 0)
	q := xq.MustParse(`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a, "copper", any) RETURN $a//enzyme_id`)
	dict := fx.store.Dict(nil)
	texts := map[string]bool{}
	for range 20 {
		tr, err := TranslateDict(dict, q, Options{UseKeywordIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(tr.SQL, "doc_id IN (") {
			t.Fatalf("no multi-document prefilter in %s", tr.SQL)
		}
		texts[tr.SQL] = true
	}
	if len(texts) != 1 {
		t.Errorf("20 translations gave %d different SQL texts", len(texts))
	}
}

func TestMultiTokenKeyword(t *testing.T) {
	fx := newFixture(t)
	docs := []*xmldoc.Document{
		named(xmldoc.MustParse(`<r><d>cell division cycle protein</d></r>`), "d0"),
		named(xmldoc.MustParse(`<r><d>cell membrane</d></r>`), "d1"),
		named(xmldoc.MustParse(`<r><d>division of labour</d></r>`), "d2"),
	}
	fx.loadDocs(t, "db", nil, docs)
	for _, useIndex := range []bool{false, true} {
		rows := assertAgree(t, fx, `FOR $x IN document("db")/r
WHERE contains($x, "cell division", any) RETURN $x/d`, useIndex, true)
		if strings.Join(rows, ";") != "cell division cycle protein" {
			t.Errorf("multi-token keyword = %v", rows)
		}
	}
}

func TestTranslationSQLShape(t *testing.T) {
	fx := newFixture(t)
	loadPaperCorpus(t, fx, 3, 0, 0)
	q := xq.MustParse(`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id`)
	tr, err := Translate(fx.store, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"SELECT DISTINCT", "FROM nodes b1", "values_str", "KWCONTAINS",
		"w2.node_id > b1.node_id AND w2.node_id <= b1.last_desc"} {
		if !strings.Contains(tr.SQL, frag) {
			t.Errorf("SQL missing %q:\n%s", frag, tr.SQL)
		}
	}
	if strings.Contains(tr.SQL, "LIKE") {
		t.Errorf("SQL tests structure with LIKE:\n%s", tr.SQL)
	}
}

func TestSeqContainsAgreement(t *testing.T) {
	fx := newFixture(t)
	// EMBL-style docs with sequence data routed to seq_data.
	entries := []*bio.EMBLEntry{
		{ID: "E1", Division: "INV", Accession: "X00001", Description: "first",
			Sequence: "acgtacgtttttacgt"},
		{ID: "E2", Division: "INV", Accession: "X00002", Description: "second",
			Sequence: "gggggccccc"},
		{ID: "E3", Division: "INV", Accession: "X00003", Description: "acgttttt mention in text",
			Sequence: "aaaaaaaaaa"},
	}
	var docs []*xmldoc.Document
	for _, e := range entries {
		docs = append(docs, hounds.EMBLEntryToXML(e))
	}
	fx.loadDocs(t, "embl", (hounds.EMBLTransformer{}).SequencePaths(), docs)

	// Motif present only in E1's residues; E3 mentions the motif in its
	// DESCRIPTION, which must NOT match a sequence search through the
	// relational path (description text lives in values_str, not
	// seq_data).
	q := xq.MustParse(`FOR $a IN document("embl")/hlx_n_sequence
WHERE seqcontains($a//sequence_data, "gtttttac")
RETURN $a//embl_accession_number`)
	tr, err := Translate(fx.store, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.SQL, "seq_data") || !strings.Contains(tr.SQL, "CONTAINS") {
		t.Errorf("SQL should search seq_data: %s", tr.SQL)
	}
	res, err := fx.store.DB.Query(tr.SQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "X00001" {
		t.Errorf("seqcontains rows = %v", res.Rows)
	}
	// Native agreement on the sequence-element target.
	nres, err := nativexml.Eval(fx.corpus, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(nres.Rows) != 1 || nres.Rows[0][0] != "X00001" {
		t.Errorf("native seqcontains rows = %v", nres.Rows)
	}
	// Case-insensitive motif.
	q2 := xq.MustParse(`FOR $a IN document("embl")/hlx_n_sequence
WHERE seqcontains($a//sequence_data, "GGGGGCC")
RETURN $a//embl_accession_number`)
	rows, native := runBothParsed(t, fx, q2)
	if strings.Join(rows, ";") != "X00002" || strings.Join(native, ";") != "X00002" {
		t.Errorf("case-insensitive motif: sql=%v native=%v", rows, native)
	}
	// A motif found nowhere.
	q3 := xq.MustParse(`FOR $a IN document("embl")/hlx_n_sequence
WHERE seqcontains($a//sequence_data, "zzzz")
RETURN $a//embl_accession_number`)
	rows, native = runBothParsed(t, fx, q3)
	if len(rows) != 0 || len(native) != 0 {
		t.Errorf("missing motif matched: sql=%v native=%v", rows, native)
	}
}

// runBothParsed executes a parsed query through both engines.
func runBothParsed(t *testing.T, fx *fixture, q *xq.Query) (sqlRows, nativeRows []string) {
	t.Helper()
	tr, err := Translate(fx.store, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fx.store.DB.Query(tr.SQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		sqlRows = append(sqlRows, strings.Join(parts, "|"))
	}
	nres, err := nativexml.Eval(fx.corpus, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range nres.Rows {
		nativeRows = append(nativeRows, strings.Join(row, "|"))
	}
	sort.Strings(sqlRows)
	sort.Strings(nativeRows)
	return sqlRows, nativeRows
}
