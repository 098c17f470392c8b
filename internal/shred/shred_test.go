package shred

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"xomatiq/internal/bio"
	"xomatiq/internal/hounds"
	"xomatiq/internal/sql"
	"xomatiq/internal/xmldoc"
)

func openStore(t *testing.T) *Store {
	t.Helper()
	db, err := sql.Open(filepath.Join(t.TempDir(), "wh.db"), sql.Options{PoolPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s, err := Open(db, true)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// shredDocs loads docs into db the way the ingest pipeline does with one
// worker: ids reserved in stream order, every document shredded against
// one dictionary snapshot, one chunk inserted in one batch, keyword
// shards merged once it commits. It returns the documents' ids.
func shredDocs(s *Store, db string, docs ...*xmldoc.Document) ([]int, error) {
	sh, err := s.NewShredder(db)
	if err != nil {
		return nil, err
	}
	ids := make([]int, len(docs))
	chunk := make([]*DocBatch, len(docs))
	for i, d := range docs {
		ids[i] = s.ReserveDocID(db)
		chunk[i] = sh.Shred(ids[i], d)
	}
	if err := s.DB.Begin(); err != nil {
		return nil, err
	}
	if err := s.InsertChunk(db, chunk); err != nil {
		return nil, errors.Join(err, s.DB.Rollback())
	}
	if err := s.DB.Commit(); err != nil {
		return nil, err
	}
	for _, b := range chunk {
		s.MergeKeywords(db, b)
	}
	s.BumpEpoch(db)
	return ids, nil
}

func load(t testing.TB, s *Store, db string, docs ...*xmldoc.Document) []int {
	t.Helper()
	ids, err := shredDocs(s, db, docs...)
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

func loadSample(t *testing.T, s *Store) int {
	t.Helper()
	if err := s.RegisterDB("hlx_enzyme.DEFAULT", nil, hounds.EnzymeDTD); err != nil {
		t.Fatal(err)
	}
	return load(t, s, "hlx_enzyme.DEFAULT", hounds.EnzymeEntryToXML(bio.SampleEnzymeEntry()))[0]
}

func TestLoadAndReconstruct(t *testing.T) {
	s := openStore(t)
	id := loadSample(t, s)
	orig := hounds.EnzymeEntryToXML(bio.SampleEnzymeEntry())
	got, err := s.Reconstruct("hlx_enzyme.DEFAULT", id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "1.14.17.3" {
		t.Errorf("reconstructed name = %q", got.Name)
	}
	if !xmldoc.Equal(orig.Root, got.Root) {
		t.Errorf("reconstruction differs:\nwant %s\ngot  %s",
			orig.Serialize(xmldoc.SerializeOptions{NoDecl: true}),
			got.Serialize(xmldoc.SerializeOptions{NoDecl: true}))
	}
}

func TestReconstructByName(t *testing.T) {
	s := openStore(t)
	loadSample(t, s)
	doc, err := s.ReconstructByName("hlx_enzyme.DEFAULT", "1.14.17.3")
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Name != "hlx_enzyme" {
		t.Errorf("root = %q", doc.Root.Name)
	}
	if _, err := s.ReconstructByName("hlx_enzyme.DEFAULT", "absent"); err == nil {
		t.Error("absent document should fail")
	}
	if _, err := s.Reconstruct("hlx_enzyme.DEFAULT", 12345); err == nil {
		t.Error("bogus doc id should fail")
	}
}

func TestValuesTablesAndTypes(t *testing.T) {
	s := openStore(t)
	if err := s.RegisterDB("db", nil, ""); err != nil {
		t.Fatal(err)
	}
	doc := xmldoc.MustParse(`<ann><name>seq1</name><length>900</length><score>8.25</score></ann>`)
	doc.Name = "a1"
	load(t, s, "db", doc)
	// String values present for every text/attr node.
	rows, err := s.DB.Query(`SELECT COUNT(*) FROM values_str WHERE db = 'db'`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Rows[0][0].Int() != 3 {
		t.Errorf("values_str count = %v", rows.Rows[0][0])
	}
	// Numeric-looking values double-stored in values_num (paper §2.2).
	rows, _ = s.DB.Query(`SELECT COUNT(*) FROM values_num WHERE db = 'db'`)
	if rows.Rows[0][0].Int() != 2 {
		t.Errorf("values_num count = %v", rows.Rows[0][0])
	}
	// Numeric range query through values_num.
	pids := s.PathsMatching("db", "/ann/length")
	if len(pids) != 1 {
		t.Fatalf("path ids for /ann/length = %v", pids)
	}
	rows, err = s.DB.Query(fmt.Sprintf(
		`SELECT COUNT(*) FROM values_num WHERE db = 'db' AND path_id = %d AND val > 500`, pids[0]))
	if err != nil {
		t.Fatal(err)
	}
	if rows.Rows[0][0].Int() != 1 {
		t.Errorf("numeric range count = %v", rows.Rows[0][0])
	}
}

func TestSequenceSeparation(t *testing.T) {
	s := openStore(t)
	if err := s.RegisterDB("embl", []string{"/hlx_n_sequence/db_entry/sequence_data"}, ""); err != nil {
		t.Fatal(err)
	}
	entry := &bio.EMBLEntry{
		ID: "E1", Division: "INV", Accession: "X00001",
		Description: "test entry", Sequence: "acgtacgt",
	}
	id := load(t, s, "embl", hounds.EMBLEntryToXML(entry))[0]
	rows, _ := s.DB.Query(`SELECT seq FROM seq_data WHERE db = 'embl'`)
	if len(rows.Rows) != 1 || rows.Rows[0][0].Text() != "acgtacgt" {
		t.Errorf("seq_data = %v", rows.Rows)
	}
	// Sequence residues must NOT pollute values_str or the keyword index.
	rows, _ = s.DB.Query(`SELECT COUNT(*) FROM values_str WHERE db = 'embl' AND val = 'acgtacgt'`)
	if rows.Rows[0][0].Int() != 0 {
		t.Error("sequence leaked into values_str")
	}
	if got := s.Keywords("embl").Lookup("acgtacgt"); got != nil {
		t.Error("sequence leaked into keyword index")
	}
	// Reconstruction still includes the sequence.
	rec, err := s.Reconstruct("embl", id)
	if err != nil {
		t.Fatal(err)
	}
	seq := rec.Root.DescendantElements("sequence_data")
	if len(seq) != 1 || seq[0].Text() != "acgtacgt" {
		t.Error("sequence lost in reconstruction")
	}
}

func TestKeywordIndex(t *testing.T) {
	s := openStore(t)
	loadSample(t, s)
	kw := s.Keywords("hlx_enzyme.DEFAULT")
	if kw == nil {
		t.Fatal("no keyword index")
	}
	if docs := kw.LookupDocs("monooxygenase"); len(docs) != 1 {
		t.Errorf("monooxygenase docs = %v", docs)
	}
	if docs := kw.LookupDocs("copper"); len(docs) != 1 {
		t.Errorf("copper docs = %v", docs)
	}
	// EC number searchable as compound token.
	if docs := kw.LookupDocs("1.14.17.3"); len(docs) != 1 {
		t.Errorf("EC number docs = %v", docs)
	}
}

func TestKeywordIndexRebuiltOnOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wh.db")
	db, err := sql.Open(path, sql.Options{PoolPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(db, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterDB("hlx_enzyme.DEFAULT", nil, hounds.EnzymeDTD); err != nil {
		t.Fatal(err)
	}
	load(t, s, "hlx_enzyme.DEFAULT", hounds.EnzymeEntryToXML(bio.SampleEnzymeEntry()))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := sql.Open(path, sql.Options{PoolPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s2, err := Open(db2, true)
	if err != nil {
		t.Fatal(err)
	}
	if docs := s2.Keywords("hlx_enzyme.DEFAULT").LookupDocs("copper"); len(docs) != 1 {
		t.Errorf("rebuilt keyword index docs = %v", docs)
	}
	if dtdText, ok := s2.DTD("hlx_enzyme.DEFAULT"); !ok || !strings.Contains(dtdText, "hlx_enzyme") {
		t.Error("DTD not persisted")
	}
	if got := s2.Databases(); len(got) != 1 || got[0] != "hlx_enzyme.DEFAULT" {
		t.Errorf("Databases = %v", got)
	}
}

func TestDeleteDocument(t *testing.T) {
	s := openStore(t)
	loadSample(t, s)
	doc2 := hounds.EnzymeEntryToXML(&bio.EnzymeEntry{
		ID: "2.2.2.2", Description: []string{"Another enzyme with copper."},
		Cofactors: []string{"Copper"},
	})
	load(t, s, "hlx_enzyme.DEFAULT", doc2)
	if n, _ := s.DocCount("hlx_enzyme.DEFAULT"); n != 2 {
		t.Fatalf("DocCount = %d", n)
	}
	if err := s.DeleteDocument("hlx_enzyme.DEFAULT", "1.14.17.3"); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.DocCount("hlx_enzyme.DEFAULT"); n != 1 {
		t.Errorf("DocCount after delete = %d", n)
	}
	// All tuples gone.
	rows, _ := s.DB.Query(`SELECT COUNT(*) FROM nodes WHERE db = 'hlx_enzyme.DEFAULT' AND doc_id = 0`)
	if rows.Rows[0][0].Int() != 0 {
		t.Error("nodes not deleted")
	}
	// Keyword index no longer finds the deleted doc.
	if docs := s.Keywords("hlx_enzyme.DEFAULT").LookupDocs("monooxygenase"); len(docs) != 0 {
		t.Errorf("deleted doc still indexed: %v", docs)
	}
	if docs := s.Keywords("hlx_enzyme.DEFAULT").LookupDocs("copper"); len(docs) != 1 {
		t.Errorf("surviving doc lost: %v", docs)
	}
	if err := s.DeleteDocument("hlx_enzyme.DEFAULT", "absent"); err == nil {
		t.Error("delete of absent doc should fail")
	}
}

func TestPathsMatching(t *testing.T) {
	s := openStore(t)
	loadSample(t, s)
	db := "hlx_enzyme.DEFAULT"
	// Absolute.
	ids := s.PathsMatching(db, "/hlx_enzyme/db_entry/enzyme_id")
	if len(ids) != 1 {
		t.Errorf("absolute match = %v", ids)
	}
	// Descendant.
	ids = s.PathsMatching(db, "//enzyme_id")
	if len(ids) != 1 {
		t.Errorf("descendant match = %v", ids)
	}
	ids = s.PathsMatching(db, "/hlx_enzyme//reference")
	if len(ids) != 1 {
		t.Errorf("mixed match = %v", ids)
	}
	ids = s.PathsMatching(db, "//@swissprot_accession_number")
	if len(ids) != 1 {
		t.Errorf("attr match = %v", ids)
	}
	if ids := s.PathsMatching(db, "//nonexistent"); len(ids) != 0 {
		t.Errorf("bogus pattern matched %v", ids)
	}
}

func TestOrderPreservedAcrossShred(t *testing.T) {
	s := openStore(t)
	if err := s.RegisterDB("db", nil, ""); err != nil {
		t.Fatal(err)
	}
	doc := xmldoc.MustParse(`<r><x>1</x><y>2</y><x>3</x><y>4</y><x>5</x></r>`)
	doc.Name = "ordered"
	id := load(t, s, "db", doc)[0]
	rec, err := s.Reconstruct("db", id)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range rec.Root.ChildElements("") {
		names = append(names, c.Name+c.Text())
	}
	if strings.Join(names, ",") != "x1,y2,x3,y4,x5" {
		t.Errorf("order broken: %v", names)
	}
	// Dewey sort keys in the nodes table follow document order via plain
	// string ORDER BY.
	rows, err := s.DB.Query(`SELECT name, dewey FROM nodes WHERE db = 'db' AND kind = 0 ORDER BY dewey`)
	if err != nil {
		t.Fatal(err)
	}
	var seq []string
	for _, r := range rows.Rows {
		seq = append(seq, r[0].Text())
	}
	if strings.Join(seq, ",") != "r,x,y,x,y,x" {
		t.Errorf("dewey ORDER BY order = %v", seq)
	}
}

func TestLoadUnregisteredDB(t *testing.T) {
	s := openStore(t)
	doc := xmldoc.MustParse(`<r/>`)
	if _, err := shredDocs(s, "nope", doc); err == nil {
		t.Error("load into unregistered db should fail")
	}
}

func TestBatchLoadMany(t *testing.T) {
	s := openStore(t)
	if err := s.RegisterDB("hlx_enzyme.DEFAULT", nil, hounds.EnzymeDTD); err != nil {
		t.Fatal(err)
	}
	entries := bio.GenEnzymes(30, bio.GenOptions{Seed: 4})
	var buf bytes.Buffer
	if err := bio.WriteEnzyme(&buf, entries); err != nil {
		t.Fatal(err)
	}
	docs, err := hounds.TransformAndValidate(hounds.EnzymeTransformer{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	load(t, s, "hlx_enzyme.DEFAULT", docs...)
	if n, _ := s.DocCount("hlx_enzyme.DEFAULT"); n != len(docs) {
		t.Errorf("DocCount = %d, want %d", n, len(docs))
	}
	// Every loaded document reconstructs identically.
	for _, d := range docs[:5] {
		rec, err := s.ReconstructByName("hlx_enzyme.DEFAULT", d.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !xmldoc.Equal(d.Root, rec.Root) {
			t.Fatalf("document %q reconstruction differs", d.Name)
		}
	}
}

func TestQuote(t *testing.T) {
	if got := Quote("it's"); got != "'it''s'" {
		t.Errorf("Quote = %q", got)
	}
	if got := Quote(""); got != "''" {
		t.Errorf("Quote empty = %q", got)
	}
}

func TestClearDatabase(t *testing.T) {
	s := openStore(t)
	loadSample(t, s)
	if err := s.ClearDatabase("hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.DocCount("hlx_enzyme.DEFAULT"); n != 0 {
		t.Errorf("DocCount after clear = %d", n)
	}
	if docs := s.Keywords("hlx_enzyme.DEFAULT").LookupDocs("copper"); len(docs) != 0 {
		t.Error("keyword index survived clear")
	}
	// Registration and DTD survive; reloading works and doc ids restart.
	doc := hounds.EnzymeEntryToXML(bio.SampleEnzymeEntry())
	if ids, err := shredDocs(s, "hlx_enzyme.DEFAULT", doc); err != nil || ids[0] != 0 {
		t.Errorf("reload after clear: ids=%v err=%v", ids, err)
	}
	if err := s.ClearDatabase("unknown"); err == nil {
		t.Error("clear of unregistered db should fail")
	}
}

func TestHasDBAndPathCount(t *testing.T) {
	s := openStore(t)
	loadSample(t, s)
	if !s.HasDB("hlx_enzyme.DEFAULT") || s.HasDB("nope") {
		t.Error("HasDB misbehaves")
	}
	dbs, err := s.Overview()
	if err != nil {
		t.Fatal(err)
	}
	if len(dbs) != 1 || dbs[0].DB != "hlx_enzyme.DEFAULT" || dbs[0].Paths < 10 {
		t.Errorf("Overview = %+v, want one database with >= 10 paths", dbs)
	}
}
