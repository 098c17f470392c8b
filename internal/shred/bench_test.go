package shred

import (
	"path/filepath"
	"strings"
	"testing"

	"xomatiq/internal/bio"
	"xomatiq/internal/hounds"
	"xomatiq/internal/sql"
)

// dropIndexes drops the schema's secondary indexes, so a benchmark
// measures the load without index maintenance.
func dropIndexes(tb testing.TB, db *sql.DB) {
	tb.Helper()
	for _, ddl := range IndexDDL {
		name := strings.Fields(ddl)[5] // CREATE INDEX IF NOT EXISTS <name> ON ...
		if _, err := db.Exec("DROP INDEX " + name); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkLoadOneDocument measures a one-document load through the
// pipeline's stages on one goroutine: reserve an id, shred, insert the
// one-batch chunk, commit, merge its keywords.
func BenchmarkLoadOneDocument(b *testing.B) {
	db, err := sql.OpenAsync(filepath.Join(b.TempDir(), "wh.db"), sql.Options{PoolPages: 4096})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	s, err := Open(db)
	if err != nil {
		b.Fatal(err)
	}
	dropIndexes(b, db)
	if err := s.RegisterDB("hlx_enzyme.DEFAULT", nil, hounds.EnzymeDTD); err != nil {
		b.Fatal(err)
	}
	doc := hounds.EnzymeEntryToXML(bio.SampleEnzymeEntry())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shredDocs(s, "hlx_enzyme.DEFAULT", doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShred measures the pure-CPU worker half of the parallel
// pipeline: one document to an in-memory DocBatch, no storage I/O.
func BenchmarkShred(b *testing.B) {
	db, err := sql.OpenAsync(filepath.Join(b.TempDir(), "wh.db"), sql.Options{PoolPages: 1024})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	s, err := Open(db)
	if err != nil {
		b.Fatal(err)
	}
	dropIndexes(b, db)
	if err := s.RegisterDB("hlx_enzyme.DEFAULT", nil, hounds.EnzymeDTD); err != nil {
		b.Fatal(err)
	}
	doc := hounds.EnzymeEntryToXML(bio.SampleEnzymeEntry())
	// Warm the dictionary so the steady-state (snapshot-hit) path is
	// what gets measured.
	sh, err := s.NewShredder("hlx_enzyme.DEFAULT")
	if err != nil {
		b.Fatal(err)
	}
	warm := sh.Shred(s.ReserveDocID("hlx_enzyme.DEFAULT"), doc)
	if err := s.InsertChunk("hlx_enzyme.DEFAULT", []*DocBatch{warm}); err != nil {
		b.Fatal(err)
	}
	if sh, err = s.NewShredder("hlx_enzyme.DEFAULT"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := sh.Shred(1, doc)
		if batch.Tuples() == 0 {
			b.Fatal("empty batch")
		}
	}
}
