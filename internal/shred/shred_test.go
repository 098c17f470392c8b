package shred

import (
	"bytes"
	"context"
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
	s, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// shredDocs loads docs into db the way the ingest pipeline does with one
// worker: ids reserved in stream order, every document shredded against
// one dictionary snapshot, one chunk inserted in one batch, whose commit
// publishes its keyword postings. It returns the documents' ids.
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
	pids := s.Dict(nil).PathsMatching("db", "/ann/length")
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
	if got := s.Dict(nil).Keywords("embl").Lookup("acgtacgt"); got != nil {
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
	kw := s.Dict(nil).Keywords("hlx_enzyme.DEFAULT")
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
	s, err := Open(db)
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
	s2, err := Open(db2)
	if err != nil {
		t.Fatal(err)
	}
	if docs := s2.Dict(nil).Keywords("hlx_enzyme.DEFAULT").LookupDocs("copper"); len(docs) != 1 {
		t.Errorf("rebuilt keyword index docs = %v", docs)
	}
	if dtdText, ok := s2.Dict(nil).DTD("hlx_enzyme.DEFAULT"); !ok || !strings.Contains(dtdText, "hlx_enzyme") {
		t.Error("DTD not persisted")
	}
	if got := s2.Dict(nil).Databases(); len(got) != 1 || got[0] != "hlx_enzyme.DEFAULT" {
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
	if docs := s.Dict(nil).Keywords("hlx_enzyme.DEFAULT").LookupDocs("monooxygenase"); len(docs) != 0 {
		t.Errorf("deleted doc still indexed: %v", docs)
	}
	if docs := s.Dict(nil).Keywords("hlx_enzyme.DEFAULT").LookupDocs("copper"); len(docs) != 1 {
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
	ids := s.Dict(nil).PathsMatching(db, "/hlx_enzyme/db_entry/enzyme_id")
	if len(ids) != 1 {
		t.Errorf("absolute match = %v", ids)
	}
	// Descendant.
	ids = s.Dict(nil).PathsMatching(db, "//enzyme_id")
	if len(ids) != 1 {
		t.Errorf("descendant match = %v", ids)
	}
	ids = s.Dict(nil).PathsMatching(db, "/hlx_enzyme//reference")
	if len(ids) != 1 {
		t.Errorf("mixed match = %v", ids)
	}
	ids = s.Dict(nil).PathsMatching(db, "//@swissprot_accession_number")
	if len(ids) != 1 {
		t.Errorf("attr match = %v", ids)
	}
	if ids := s.Dict(nil).PathsMatching(db, "//nonexistent"); len(ids) != 0 {
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
	// node_id is document order: ORDER BY node_id lists every node,
	// text included, as the document reads.
	rows, err := s.DB.Query(`SELECT name, kind FROM nodes WHERE db = 'db' ORDER BY node_id`)
	if err != nil {
		t.Fatal(err)
	}
	var seq []string
	for _, r := range rows.Rows {
		if r[1].Int() == kindText {
			seq = append(seq, "#")
			continue
		}
		seq = append(seq, r[0].Text())
	}
	if strings.Join(seq, ",") != "r,x,#,y,#,x,#,y,#,x,#" {
		t.Errorf("node_id ORDER BY order = %v", seq)
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
	if docs := s.Dict(nil).Keywords("hlx_enzyme.DEFAULT").LookupDocs("copper"); len(docs) != 0 {
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

// TestDigests: a load stores each document's digest in its own batch;
// Digests reads them back by name, rebuilds the digest of a document
// that has no row (a warehouse written before digests were stored), and
// DeleteDocument and ClearDatabase drop the rows with the documents.
func TestDigests(t *testing.T) {
	s := openStore(t)
	const db = "hlx_enzyme.DEFAULT"
	if err := s.RegisterDB(db, nil, hounds.EnzymeDTD); err != nil {
		t.Fatal(err)
	}
	var docs []*xmldoc.Document
	for _, en := range bio.GenEnzymes(3, bio.GenOptions{Seed: 5}) {
		docs = append(docs, hounds.EnzymeEntryToXML(en))
	}
	ids := load(t, s, db, docs...)
	digestRows := func() int64 {
		t.Helper()
		rows, err := s.DB.Query(`SELECT COUNT(*) FROM digests WHERE db = 'hlx_enzyme.DEFAULT'`)
		if err != nil {
			t.Fatal(err)
		}
		return rows.Rows[0][0].Int()
	}
	check := func(stage string, want []*xmldoc.Document) {
		t.Helper()
		got, err := s.Digests(db, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d digests, want %d", stage, len(got), len(want))
		}
		for _, d := range want {
			if got[d.Name] != d.Digest() {
				t.Errorf("%s: digest of %s = %x, want %x", stage, d.Name, got[d.Name], d.Digest())
			}
		}
	}
	check("loaded", docs)
	if n := digestRows(); n != int64(len(docs)) {
		t.Errorf("%d digests rows after loading %d documents", n, len(docs))
	}

	if _, err := s.DB.Exec(fmt.Sprintf(`DELETE FROM digests WHERE db = 'hlx_enzyme.DEFAULT' AND doc_id = %d`, ids[1])); err != nil {
		t.Fatal(err)
	}
	check("one row missing", docs)

	if err := s.DeleteDocument(db, docs[0].Name); err != nil {
		t.Fatal(err)
	}
	check("one deleted", docs[1:])
	if n, want := digestRows(), int64(len(docs)-2); n != want {
		t.Errorf("%d digests rows with one missing and one document deleted, want %d", n, want)
	}
	if err := s.ClearDatabase(db); err != nil {
		t.Fatal(err)
	}
	check("cleared", nil)
	if n := digestRows(); n != 0 {
		t.Errorf("%d digests rows after clearing, want 0", n)
	}
}

// TestDocuments: Documents rebuilds a database in doc_id order through
// the view it is given and stops at a cancelled context.
func TestDocuments(t *testing.T) {
	s := openStore(t)
	const db = "hlx_enzyme.DEFAULT"
	if err := s.RegisterDB(db, nil, hounds.EnzymeDTD); err != nil {
		t.Fatal(err)
	}
	var docs []*xmldoc.Document
	for _, en := range bio.GenEnzymes(4, bio.GenOptions{Seed: 9}) {
		docs = append(docs, hounds.EnzymeEntryToXML(en))
	}
	load(t, s, db, docs[:3]...)
	snap := s.DB.AcquireSnapshot()
	defer s.DB.ReleaseSnapshot(snap)
	load(t, s, db, docs[3:]...)

	for _, tc := range []struct {
		view *sql.Snap
		want []*xmldoc.Document
	}{{snap, docs[:3]}, {s.DB.BatchView(), docs}} {
		got, err := s.Documents(context.Background(), db, tc.view)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("Documents = %d documents, want %d", len(got), len(tc.want))
		}
		for i, d := range tc.want {
			if got[i].Name != d.Name || !xmldoc.Equal(got[i].Root, d.Root) {
				t.Errorf("document %d = %s, want %s", i, got[i].Name, d.Name)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Documents(ctx, db, snap); !errors.Is(err, context.Canceled) {
		t.Errorf("Documents under a cancelled context: %v", err)
	}
}

func TestHasDBAndPathCount(t *testing.T) {
	s := openStore(t)
	loadSample(t, s)
	if d := s.Dict(nil); !d.HasDB("hlx_enzyme.DEFAULT") || d.HasDB("nope") {
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

// TestLegacyDeweyMigration: Open rewrites tables that still end in a
// Dewey sort key, keeping every row and id and deriving last_desc from
// parent_id, and refuses, leaving the file as it was, a document whose
// node ids do not follow its sort keys.
func TestLegacyDeweyMigration(t *testing.T) {
	legacy := func(t *testing.T, xKey, aKey string) *sql.DB {
		db, err := sql.Open(filepath.Join(t.TempDir(), "old.db"), sql.Options{PoolPages: 1024})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		// <r a="1"><x>t</x></r>, numbered as the shredder always has.
		for _, stmt := range []string{
			`CREATE TABLE nodes (db TEXT, doc_id INT, node_id INT, parent_id INT,
			   kind INT, name TEXT, path_id INT, sib_pos INT, depth INT, dewey TEXT)`,
			`CREATE TABLE values_str (db TEXT, doc_id INT, node_id INT, parent_id INT, path_id INT, val TEXT, dewey TEXT)`,
			`CREATE TABLE values_num (db TEXT, doc_id INT, node_id INT, parent_id INT, path_id INT, val FLOAT, dewey TEXT)`,
			`CREATE TABLE seq_data (db TEXT, doc_id INT, node_id INT, parent_id INT, path_id INT, seq TEXT, dewey TEXT)`,
			`INSERT INTO nodes VALUES ('d', 0, 0, -1, 0, 'r', 0, 1, 0, '000001'),
			   ('d', 0, 1, 0, 1, 'a', 1, 1, 1, '` + aKey + `'),
			   ('d', 0, 2, 0, 0, 'x', 2, 2, 1, '` + xKey + `'),
			   ('d', 0, 3, 2, 2, '', 2, 1, 2, '000001.000002.000001')`,
			`INSERT INTO values_str VALUES ('d', 0, 1, 0, 1, '1', '000001.000001'), ('d', 0, 3, 2, 2, 't', '000001.000002.000001')`,
			`INSERT INTO values_num VALUES ('d', 0, 1, 0, 1, 1.0, '000001.000001')`,
		} {
			if _, err := db.Exec(stmt); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	dump := func(t *testing.T, db *sql.DB, q string) string {
		rows, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range rows.Rows {
			var f []string
			for _, v := range r {
				f = append(f, v.String())
			}
			out = append(out, strings.Join(f, " "))
		}
		return strings.Join(rows.Columns, " ") + ": " + strings.Join(out, "; ")
	}

	t.Run("migrates", func(t *testing.T) {
		db := legacy(t, "000001.000002", "000001.000001")
		if _, err := Open(db); err != nil {
			t.Fatal(err)
		}
		for q, want := range map[string]string{
			`SELECT node_id, last_desc FROM nodes`:        "node_id last_desc: 0 3; 1 1; 2 3; 3 3",
			`SELECT * FROM values_str`:                    "db doc_id node_id parent_id path_id val: d 0 1 0 1 1; d 0 3 2 2 t",
			`SELECT * FROM values_num`:                    "db doc_id node_id parent_id path_id val: d 0 1 0 1 1",
			`SELECT node_id FROM seq_data`:                "node_id: ",
			`SELECT COUNT(*) FROM nodes WHERE doc_id = 0`: "COUNT(*): 4",
		} {
			if got := dump(t, db, q); got != want {
				t.Errorf("%s after migration = %q, want %q", q, got, want)
			}
		}
		if err := db.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("refuses disorder", func(t *testing.T) {
		// x's sort key puts it before the attribute that has the lower id.
		db := legacy(t, "000001.000001", "000001.000002")
		if _, err := Open(db); !errors.Is(err, ErrLegacyOrder) {
			t.Fatalf("Open of a disordered legacy file: %v, want ErrLegacyOrder", err)
		}
		if got := dump(t, db, `SELECT node_id, dewey FROM nodes WHERE node_id = 2`); got != "node_id dewey: 2 000001.000001" {
			t.Errorf("the refused file changed: %s", got)
		}
	})
}
