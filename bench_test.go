// Benchmarks: one per experiment in DESIGN.md §4 (E1-E15). Each
// regenerates the scenario behind one figure or measurable claim of the
// paper; EXPERIMENTS.md records the paper statement vs the measured
// outcome. Run with:
//
//	go test -bench=. -benchmem
package xomatiq_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"xomatiq/internal/benchutil"
	"xomatiq/internal/bio"
	"xomatiq/internal/core"
	"xomatiq/internal/hounds"
	"xomatiq/internal/nativexml"
	"xomatiq/internal/shred"
	"xomatiq/internal/sql"
	"xomatiq/internal/srs"
	"xomatiq/internal/value"
	"xomatiq/internal/xq"
)

var benchOpts = bio.GenOptions{Seed: 42, Cdc6Rate: 0.02, ECLinkRate: 0.3}

// flatsCache shares generated corpora across benchmarks.
var (
	flatsMu    sync.Mutex
	flatsCache = map[string]*benchutil.Flats{}
)

func flats(b *testing.B, nEnzyme, nEMBL, nSProt int) *benchutil.Flats {
	b.Helper()
	key := fmt.Sprintf("%d/%d/%d", nEnzyme, nEMBL, nSProt)
	flatsMu.Lock()
	defer flatsMu.Unlock()
	if f, ok := flatsCache[key]; ok {
		return f
	}
	f, err := benchutil.BuildFlats(nEnzyme, nEMBL, nSProt, benchOpts)
	if err != nil {
		b.Fatal(err)
	}
	flatsCache[key] = f
	return f
}

// warehouse builds an engine over a fresh temp dir.
func warehouse(b *testing.B, f *benchutil.Flats, mod func(*core.Config)) *core.Engine {
	b.Helper()
	eng, err := benchutil.Warehouse(b.TempDir(), f, mod)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	return eng
}

func runQuery(b *testing.B, eng *core.Engine, query string) *core.Result {
	b.Helper()
	res, err := eng.Query(query)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// ---------------------------------------------------------------------
// E1 (Fig. 2-4): ENZYME flat-file parsing throughput.
func BenchmarkE1EnzymeParse(b *testing.B) {
	for _, n := range []int{100, 1000} {
		f := flats(b, n, 0, 0)
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(f.Enzyme)))
			for i := 0; i < b.N; i++ {
				entries, err := bio.ParseEnzyme(strings.NewReader(f.Enzyme))
				if err != nil || len(entries) != n+1 {
					b.Fatalf("parsed %d, err %v", len(entries), err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// E2 (Fig. 5-6): flat file -> DTD-valid XML documents.
func BenchmarkE2XMLTransform(b *testing.B) {
	for _, n := range []int{100, 1000} {
		f := flats(b, n, 0, 0)
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				docs, err := hounds.TransformAndValidate(
					hounds.EnzymeTransformer{}, strings.NewReader(f.Enzyme))
				if err != nil || len(docs) != n+1 {
					b.Fatalf("transformed %d, err %v", len(docs), err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// E3 (Fig. 1): the full Data Hounds pipeline, flat file to shredded
// warehouse tuples (load throughput in entries/second). workers=1 runs
// the ingest pipeline sequentially (the reference the parallel path
// must reproduce byte-for-byte); workers=N fans validation and
// shredding across CPUs.
func BenchmarkE3PipelineLoad(b *testing.B) {
	workerCounts := []int{1}
	if max := runtime.GOMAXPROCS(0); max > 1 {
		workerCounts = append(workerCounts, max)
	}
	for _, n := range []int{100, 500, 1000} {
		f := flats(b, n, 0, 0)
		for _, w := range workerCounts {
			b.Run(fmt.Sprintf("entries=%d/workers=%d", n, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					eng, err := benchutil.Warehouse(b.TempDir(), &benchutil.Flats{Enzyme: f.Enzyme},
						func(c *core.Config) { c.LoadWorkers = w })
					if err != nil {
						b.Fatal(err)
					}
					eng.Close()
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// E4 (Fig. 8): the keyword query across EMBL + Swiss-Prot, with and
// without the inverted keyword index, at two corpus sizes.
func BenchmarkE4KeywordQuery(b *testing.B) {
	for _, n := range []int{200, 1000} {
		f := flats(b, 10, n, n)
		for _, useIndex := range []bool{true, false} {
			name := fmt.Sprintf("entries=%dx2/kwindex=%v", n, useIndex)
			b.Run(name, func(b *testing.B) {
				eng := warehouse(b, f, func(c *core.Config) { c.UseKeywordIndex = useIndex })
				b.ResetTimer()
				rows := 0
				for i := 0; i < b.N; i++ {
					rows = len(runQuery(b, eng, benchutil.Figure8Query).Rows)
				}
				b.ReportMetric(float64(rows), "rows")
			})
		}
	}
}

// ---------------------------------------------------------------------
// E5 (Fig. 7, 9): the sub-tree search on ENZYME.
func BenchmarkE5SubtreeQuery(b *testing.B) {
	for _, n := range []int{200, 1000} {
		f := flats(b, n, 0, 0)
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			eng := warehouse(b, f, nil)
			b.ResetTimer()
			rows := 0
			for i := 0; i < b.N; i++ {
				rows = len(runQuery(b, eng, benchutil.Figure9Query).Rows)
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// ---------------------------------------------------------------------
// E6 (Fig. 10-12): the join query EMBL x ENZYME on EC number.
func BenchmarkE6JoinQuery(b *testing.B) {
	for _, size := range []struct{ enz, embl int }{{100, 300}, {300, 1500}} {
		f := flats(b, size.enz, size.embl, 0)
		b.Run(fmt.Sprintf("enzyme=%d/embl=%d", size.enz, size.embl), func(b *testing.B) {
			eng := warehouse(b, f, nil)
			b.ResetTimer()
			rows := 0
			for i := 0; i < b.N; i++ {
				rows = len(runQuery(b, eng, benchutil.Figure11Query).Rows)
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// ---------------------------------------------------------------------
// E7 (§3.3): "reconstruction of entire large XML document from the
// tuples is expensive compared to the query processing time". Compare
// answering the Fig. 9 query against reconstructing the full documents
// of every hit.
func BenchmarkE7Reconstruction(b *testing.B) {
	f := flats(b, 500, 0, 0)
	eng := warehouse(b, f, nil)
	res := runQuery(b, eng, benchutil.Figure9Query)
	hits := map[string]bool{}
	for _, r := range res.Rows {
		hits[r[0]] = true
	}
	b.Run("query-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runQuery(b, eng, benchutil.Figure9Query)
		}
	})
	b.Run("query+reconstruct-hits", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows := runQuery(b, eng, benchutil.Figure9Query).Rows
			seen := map[string]bool{}
			for _, r := range rows {
				if seen[r[0]] {
					continue
				}
				seen[r[0]] = true
				if _, err := eng.Document("hlx_enzyme.DEFAULT", r[0]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("reconstruct-all", func(b *testing.B) {
		names := eng.Databases()
		_ = names
		for i := 0; i < b.N; i++ {
			n, _ := eng.DocCount("hlx_enzyme.DEFAULT")
			_ = n
			rows, err := eng.DB().Query(`SELECT name FROM docs WHERE db = 'hlx_enzyme.DEFAULT'`)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range rows.Rows {
				if _, err := eng.Document("hlx_enzyme.DEFAULT", r[0].Text()); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// ---------------------------------------------------------------------
// E8 (§3.2): index ablation over the query suite — the paper's indexes
// were chosen "by meticulous analysis of the query plans".
func BenchmarkE8IndexAblation(b *testing.B) {
	f := flats(b, 300, 500, 500)
	configs := []struct {
		name string
		mod  func(*core.Config)
	}{
		{"all-indexes", nil},
		{"no-indexes", func(c *core.Config) { c.WithIndexes = false; c.UseKeywordIndex = false }},
	}
	for _, cfg := range configs {
		eng := warehouse(b, f, cfg.mod)
		for _, q := range benchutil.QuerySuite {
			b.Run(cfg.name+"/"+q.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runQuery(b, eng, q.Query)
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// E9 (§4): XomatiQ vs an SRS-style field-lookup system. SRS answers only
// pre-indexed exact field lookups (fast); XomatiQ answers the whole
// suite. The expressiveness gap is recorded in EXPERIMENTS.md.
func BenchmarkE9VsSRS(b *testing.B) {
	f := flats(b, 1000, 0, 0)
	entries, err := bio.ParseEnzyme(strings.NewReader(f.Enzyme))
	if err != nil {
		b.Fatal(err)
	}
	sys := srs.New()
	anyEntries := make([]any, len(entries))
	for i, e := range entries {
		anyEntries[i] = e
	}
	sys.AddDatabank("enzyme", anyEntries, []srs.FieldIndex{
		{Name: "id", Extract: func(e any) []string { return []string{e.(*bio.EnzymeEntry).ID} }},
		{Name: "cofactor", Extract: func(e any) []string { return e.(*bio.EnzymeEntry).Cofactors }},
	}, nil)
	eng := warehouse(b, f, nil)

	b.Run("srs/field-lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hits, err := sys.Lookup("enzyme", "cofactor", "Copper")
			if err != nil || len(hits) == 0 {
				b.Fatalf("lookup: %d hits, %v", len(hits), err)
			}
		}
	})
	b.Run("xomatiq/field-lookup", func(b *testing.B) {
		q := `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE $a//cofactor = "Copper"
RETURN $a//enzyme_id`
		for i := 0; i < b.N; i++ {
			if len(runQuery(b, eng, q).Rows) == 0 {
				b.Fatal("no rows")
			}
		}
	})
	// The queries SRS cannot answer at all (any-level access, ad-hoc
	// join, theta comparison) run only on XomatiQ.
	b.Run("xomatiq/any-level-keyword", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runQuery(b, eng, benchutil.Figure9Query)
		}
	})
}

// ---------------------------------------------------------------------
// E10 (§2.2): relational-backed evaluation vs the native in-memory XML
// processor, scaling the corpus.
func BenchmarkE10VsNativeXML(b *testing.B) {
	for _, n := range []int{200, 1000} {
		f := flats(b, n, 0, 0)
		eng := warehouse(b, f, nil)
		corpus, err := benchutil.Corpus(f)
		if err != nil {
			b.Fatal(err)
		}
		q := xq.MustParse(benchutil.Figure9Query)
		b.Run(fmt.Sprintf("entries=%d/relational", n), func(b *testing.B) {
			runQuery(b, eng, benchutil.Figure9Query) // warm caches and heap
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runQuery(b, eng, benchutil.Figure9Query)
			}
		})
		b.Run(fmt.Sprintf("entries=%d/native-dom", n), func(b *testing.B) {
			b.ReportMetric(float64(benchutil.CorpusBytes(corpus)), "corpus-bytes")
			if _, err := nativexml.Eval(corpus, q); err != nil { // warm
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nativexml.Eval(corpus, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Cold start: time to the FIRST answer. The relational warehouse
	// opens its file and queries; a special-purpose XML processor must
	// re-parse the whole corpus into memory first.
	f := flats(b, 1000, 0, 0)
	whDir := b.TempDir()
	eng, err := benchutil.Warehouse(whDir, f, nil)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(whDir, "bench.db")
	eng.Close()
	q := xq.MustParse(benchutil.Figure9Query)
	b.Run("entries=1000/cold-start/relational", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := core.NewConfig(path)
			e, err := core.Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.QueryContext(context.Background(), benchutil.Figure9Query); err != nil {
				b.Fatal(err)
			}
			e.Close()
		}
	})
	b.Run("entries=1000/cold-start/native-dom", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			corpus, err := benchutil.Corpus(f)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := nativexml.Eval(corpus, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------
// E11 (§2.2): document-order operators over the shredded store ("order
// as a data value": BEFORE/AFTER compare Dewey sort keys).
func BenchmarkE11OrderOps(b *testing.B) {
	f := flats(b, 500, 0, 0)
	eng := warehouse(b, f, nil)
	q := `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE $a//alternate_name BEFORE $a//cofactor
RETURN $a//enzyme_id`
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		rows = len(runQuery(b, eng, q).Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

// ---------------------------------------------------------------------
// E12 (§2.2): incremental update vs full re-harness for a small delta.
func BenchmarkE12IncrementalUpdate(b *testing.B) {
	const n = 500
	entries := bio.GenEnzymes(n, benchOpts)
	render := func(es []*bio.EnzymeEntry) string {
		var buf bytes.Buffer
		if err := bio.WriteEnzyme(&buf, es); err != nil {
			b.Fatal(err)
		}
		return buf.String()
	}
	v1 := render(entries)
	// Delta: 5 modified, 5 added, 5 removed out of 500.
	v2entries := make([]*bio.EnzymeEntry, len(entries))
	copy(v2entries, entries)
	for i := 0; i < 5; i++ {
		ch := *v2entries[10+i]
		ch.Comments = append([]string{"curated"}, ch.Comments...)
		v2entries[10+i] = &ch
	}
	v2entries = v2entries[5:]
	for i := 0; i < 5; i++ {
		v2entries = append(v2entries, &bio.EnzymeEntry{
			ID: fmt.Sprintf("9.9.9.%d", i), Description: []string{"new"}})
	}
	v2 := render(v2entries)

	b.Run("incremental-delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cfg := core.NewConfig(filepath.Join(b.TempDir(), "w.db"))
			cfg.Async = true
			eng, err := core.Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			src := hounds.NewSimSource("enzyme", v1)
			eng.RegisterSource("hlx_enzyme.DEFAULT", src, hounds.EnzymeTransformer{})
			if _, err := eng.Harness("hlx_enzyme.DEFAULT"); err != nil {
				b.Fatal(err)
			}
			src.Publish(v2)
			b.StartTimer()
			cs, err := eng.Update("hlx_enzyme.DEFAULT")
			if err != nil || cs.Total() != 15 {
				b.Fatalf("delta %d, %v", cs.Total(), err)
			}
			b.StopTimer()
			eng.Close()
		}
	})
	b.Run("full-reharness", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cfg := core.NewConfig(filepath.Join(b.TempDir(), "w.db"))
			cfg.Async = true
			eng, err := core.Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			src := hounds.NewSimSource("enzyme", v1)
			eng.RegisterSource("hlx_enzyme.DEFAULT", src, hounds.EnzymeTransformer{})
			if _, err := eng.Harness("hlx_enzyme.DEFAULT"); err != nil {
				b.Fatal(err)
			}
			src.Publish(v2)
			b.StartTimer()
			if _, err := eng.Harness("hlx_enzyme.DEFAULT"); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			eng.Close()
		}
	})
}

// ---------------------------------------------------------------------
// E13 (§2.2): numeric comparisons through values_num vs forcing string
// storage ("several databases store annotations that are of numeric
// type such as the length of a sequence").
func BenchmarkE13NumericQuery(b *testing.B) {
	f := flats(b, 10, 1000, 0)
	eng := warehouse(b, f, nil)
	// Compare a numeric range over values_num against the same range
	// evaluated by coercing values_str.
	b.Run("values_num-range", func(b *testing.B) {
		q := `SELECT COUNT(*) FROM values_num WHERE db = 'hlx_embl.inv' AND val > 100 AND val < 300`
		for i := 0; i < b.N; i++ {
			if _, err := eng.DB().Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("values_str-coerced-scan", func(b *testing.B) {
		q := `SELECT COUNT(*) FROM values_str WHERE db = 'hlx_embl.inv' AND val > 100 AND val < 300`
		for i := 0; i < b.N; i++ {
			if _, err := eng.DB().Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------
// E14 (§2.2): crash recovery — load a batch, kill the process image,
// measure the WAL-replay open.
func BenchmarkE14Recovery(b *testing.B) {
	f := flats(b, 300, 0, 0)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		path := filepath.Join(dir, "crash.db")
		db, err := sql.Open(path, sql.Options{PoolPages: 4096})
		if err != nil {
			b.Fatal(err)
		}
		store, err := shred.Open(db, true)
		if err != nil {
			b.Fatal(err)
		}
		if err := store.RegisterDB("hlx_enzyme.DEFAULT", nil, ""); err != nil {
			b.Fatal(err)
		}
		docs, err := hounds.TransformAndValidate(
			hounds.EnzymeTransformer{}, strings.NewReader(f.Enzyme))
		if err != nil {
			b.Fatal(err)
		}
		sh, err := store.NewShredder("hlx_enzyme.DEFAULT")
		if err != nil {
			b.Fatal(err)
		}
		chunk := make([]*shred.DocBatch, len(docs))
		for j, d := range docs {
			chunk[j] = sh.Shred(store.ReserveDocID("hlx_enzyme.DEFAULT"), d)
		}
		if err := db.Begin(); err != nil {
			b.Fatal(err)
		}
		if err := store.InsertChunk("hlx_enzyme.DEFAULT", chunk); err != nil {
			b.Fatal(err)
		}
		if err := db.Commit(); err != nil {
			b.Fatal(err)
		}
		if err := db.Crash(); err != nil {
			b.Fatal(err)
		}
		walSize := int64(0)
		if st, err := os.Stat(path + ".wal"); err == nil {
			walSize = st.Size()
		}
		b.StartTimer()
		db2, err := sql.Open(path, sql.Options{PoolPages: 4096})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if !db2.Recovered() {
			b.Fatal("expected recovery")
		}
		b.ReportMetric(float64(walSize), "wal-bytes")
		// Verify consistency post-recovery.
		store2, err := shred.Open(db2, true)
		if err != nil {
			b.Fatal(err)
		}
		n, err := store2.DocCount("hlx_enzyme.DEFAULT")
		if err != nil || n != len(docs) {
			b.Fatalf("recovered %d docs, want %d (%v)", n, len(docs), err)
		}
		db2.Close()
	}
}

// ---------------------------------------------------------------------
// E15 (§2.2, extension): the sequence/non-sequence split. Motif search
// runs as substring matching over seq_data only; without the split,
// residues would sit among annotation text (searched here by scanning
// both tables) and would flood the keyword index with k-mer garbage.
func BenchmarkE15SequenceSearch(b *testing.B) {
	f := flats(b, 10, 1000, 0)
	eng := warehouse(b, f, nil)
	motifQuery := `FOR $a IN document("hlx_embl.inv")/hlx_n_sequence
WHERE seqcontains($a//sequence_data, "acgtacgt")
RETURN $a//embl_accession_number`
	b.Run("motif-over-seq_data", func(b *testing.B) {
		rows := 0
		for i := 0; i < b.N; i++ {
			rows = len(runQuery(b, eng, motifQuery).Rows)
		}
		b.ReportMetric(float64(rows), "rows")
	})
	b.Run("motif-over-all-text", func(b *testing.B) {
		// The counterfactual without the split: substring-scan every
		// text value AND every sequence.
		q := `SELECT COUNT(*) FROM values_str WHERE db = 'hlx_embl.inv' AND CONTAINS(val, 'acgtacgt')`
		q2 := `SELECT COUNT(*) FROM seq_data WHERE db = 'hlx_embl.inv' AND CONTAINS(seq, 'acgtacgt')`
		for i := 0; i < b.N; i++ {
			if _, err := eng.DB().Query(q); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.DB().Query(q2); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Keyword-index pollution: what indexing residues would cost.
	kw := eng.Store().Keywords("hlx_embl.inv")
	b.Run("keyword-index-size", func(b *testing.B) {
		b.ReportMetric(float64(kw.DistinctTokens()), "tokens-clean")
		// Tokenising sequences would add one giant token per entry plus
		// any digit runs; the real damage in a k-mer-indexing design
		// would be combinatorial. Report the clean size as the baseline.
		for i := 0; i < b.N; i++ {
			_ = kw.Len()
		}
	})
}

// ---------------------------------------------------------------------
// E16 (API redesign): the plan cache. The hit arm answers a repeated
// query from the cached translation (no XQ parse, no XQ2SQL, no SQL
// parse); the miss arm disables the cache so every iteration pays the
// full front half of the pipeline.
func BenchmarkQueryCached(b *testing.B) {
	f := flats(b, 10, 500, 500)
	q := benchutil.Figure9Query
	b.Run("cache-hit", func(b *testing.B) {
		eng := warehouse(b, f, nil)
		runQuery(b, eng, q) // populate the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runQuery(b, eng, q)
		}
		b.StopTimer()
		snap, err := eng.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if st := snap.PlanCache; st.Hits == 0 {
			b.Fatalf("no cache hits recorded: %+v", st)
		}
	})
	b.Run("cache-disabled", func(b *testing.B) {
		eng := warehouse(b, f, func(c *core.Config) { c.PlanCacheSize = -1 })
		runQuery(b, eng, q)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runQuery(b, eng, q)
		}
	})
}

// ---------------------------------------------------------------------
// E17 (read-path concurrency): N client goroutines issue a mix of the
// paper's keyword, sub-tree, and join queries against one warehouse.
// The clients dimension measures throughput under concurrent load on the
// sharded buffer pool; the workers dimension toggles intra-query scan
// parallelism (results are byte-identical either way, only QPS moves).
func BenchmarkQueryConcurrent(b *testing.B) {
	f := flats(b, 200, 300, 300)
	indexed := []string{
		benchutil.Figure8Query,  // keyword search across EMBL + Swiss-Prot
		benchutil.Figure9Query,  // any-level sub-tree search on ENZYME
		benchutil.Figure11Query, // EMBL x ENZYME join on EC number
	}
	// The scan mode disables indexes so every query drives a full
	// sequential scan — the path the streaming iterator and sharded pool
	// target. Queries come from the E8 ablation suite.
	var scan []string
	for _, q := range benchutil.QuerySuite {
		if q.Name == "eq-lookup" || q.Name == "keyword-any" {
			scan = append(scan, q.Query)
		}
	}
	modes := []struct {
		name  string
		mixed []string
		mod   func(*core.Config)
	}{
		{"indexed", indexed, nil},
		{"scan", scan, func(c *core.Config) {
			c.WithIndexes = false
			c.UseKeywordIndex = false
		}},
	}
	workerCounts := []int{1}
	if max := runtime.GOMAXPROCS(0); max > 1 {
		workerCounts = append(workerCounts, max)
	}
	for _, m := range modes {
		for _, w := range workerCounts {
			for _, clients := range []int{1, 4, 16} {
				mixed := m.mixed
				name := fmt.Sprintf("%s/clients=%d/workers=%d", m.name, clients, w)
				b.Run(name, func(b *testing.B) {
					eng := warehouse(b, f, func(c *core.Config) {
						if m.mod != nil {
							m.mod(c)
						}
						c.QueryWorkers = w
					})
					for _, q := range mixed {
						runQuery(b, eng, q) // warm plan cache and buffer pool
					}
					b.SetParallelism((clients + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
					b.ResetTimer()
					b.RunParallel(func(pb *testing.PB) {
						i := 0
						for pb.Next() {
							q := mixed[i%len(mixed)]
							i++
							if _, err := eng.Query(q); err != nil {
								b.Error(err)
								return
							}
						}
					})
					b.StopTimer()
					if secs := b.Elapsed().Seconds(); secs > 0 {
						b.ReportMetric(float64(b.N)/secs, "qps")
					}
					// Per-op engine work from the unified snapshot;
					// benchjson picks these up as custom metric columns.
					if snap, err := eng.Snapshot(); err == nil {
						m := snap.Metrics()
						for _, k := range []string{"pool.hits", "heap.pages_scanned", "plancache.hits"} {
							b.ReportMetric(m[k]/float64(b.N), k+"/op")
						}
					}
				})
			}
		}
	}
}

// ---------------------------------------------------------------------
// E18 (vectorized execution): micro-benchmarks isolating the two
// operators the columnar chunk format rebuilt. ChunkScan measures a
// full unindexed scan-and-filter (pages decode straight into chunk
// column vectors, the filter narrows selection vectors); the workers
// dimension toggles the chunk-recycling parallel scan.
func BenchmarkChunkScan(b *testing.B) {
	db, err := sql.OpenAsync(filepath.Join(b.TempDir(), "e18.db"), sql.Options{QueryWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE m (k INT, grp TEXT, v TEXT)`); err != nil {
		b.Fatal(err)
	}
	var tups []value.Tuple
	for i := 0; i < 20000; i++ {
		tups = append(tups, value.Tuple{
			value.NewInt(int64(i)),
			value.NewText(fmt.Sprintf("g%d", i%13)),
			value.NewText(fmt.Sprintf("payload-%06d-%s", i, strings.Repeat("x", 40))),
		})
	}
	if err := db.InsertBatch("m", tups); err != nil {
		b.Fatal(err)
	}
	workerCounts := []int{1}
	if max := runtime.GOMAXPROCS(0); max > 1 {
		workerCounts = append(workerCounts, max)
	}
	q := `SELECT k, v FROM m WHERE grp = 'g3'`
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			sel := parseSelect(b, q)
			b.ResetTimer()
			rows := 0
			for i := 0; i < b.N; i++ {
				res, err := db.QueryStmtOptsContext(context.Background(), sel, sql.ExecOpts{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				rows = len(res.Rows)
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// HashJoinPartitioned measures the partitioned hash join in isolation:
// both join columns are unindexed, the 12000-row build side hashes into
// multiple partitions, and workers>1 builds the per-partition tables
// concurrently.
func BenchmarkHashJoinPartitioned(b *testing.B) {
	db, err := sql.OpenAsync(filepath.Join(b.TempDir(), "e18j.db"), sql.Options{QueryWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for _, ddl := range []string{
		`CREATE TABLE dl (k INT, tag TEXT)`,
		`CREATE TABLE fr (fk INT, amt INT)`,
	} {
		if _, err := db.Exec(ddl); err != nil {
			b.Fatal(err)
		}
	}
	var tups []value.Tuple
	for i := 0; i < 400; i++ {
		tups = append(tups, value.Tuple{value.NewInt(int64(i)), value.NewText(fmt.Sprintf("t%d", i))})
	}
	if err := db.InsertBatch("dl", tups); err != nil {
		b.Fatal(err)
	}
	tups = nil
	for i := 0; i < 12000; i++ {
		tups = append(tups, value.Tuple{value.NewInt(int64(i % 400)), value.NewInt(int64(i))})
	}
	if err := db.InsertBatch("fr", tups); err != nil {
		b.Fatal(err)
	}
	workerCounts := []int{1}
	if max := runtime.GOMAXPROCS(0); max > 1 {
		workerCounts = append(workerCounts, max)
	}
	q := `SELECT d.tag, f.amt FROM dl d, fr f WHERE f.fk = d.k AND d.k < 50`
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			sel := parseSelect(b, q)
			b.ResetTimer()
			rows := 0
			for i := 0; i < b.N; i++ {
				res, err := db.QueryStmtOptsContext(context.Background(), sel, sql.ExecOpts{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				rows = len(res.Rows)
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// ---------------------------------------------------------------------
// E19 (vectorized aggregation & sort): micro-benchmarks for the GROUP BY
// hash aggregate and the ORDER BY ... LIMIT top-K path. GroupBy is the
// Fig. 11-style analytics shape — a wide fact table collapsed into a few
// hundred groups with COUNT/SUM/MIN/MAX, HAVING, and an aggregate ORDER
// BY; the clients dimension measures the same query under concurrent
// load. BenchmarkJoinSpill (below) covers the memory-bounded hash join.
func BenchmarkGroupBy(b *testing.B) {
	db, err := sql.OpenAsync(filepath.Join(b.TempDir(), "e19g.db"), sql.Options{QueryWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE ev (grp TEXT, v INT, pad TEXT)`); err != nil {
		b.Fatal(err)
	}
	var tups []value.Tuple
	for i := 0; i < 40000; i++ {
		tups = append(tups, value.Tuple{
			value.NewText(fmt.Sprintf("g%03d", i%300)),
			value.NewInt(int64(i % 1000)),
			value.NewText(fmt.Sprintf("payload-%06d-%s", i, strings.Repeat("x", 32))),
		})
	}
	if err := db.InsertBatch("ev", tups); err != nil {
		b.Fatal(err)
	}
	q := `SELECT grp, COUNT(*), SUM(v), MIN(v), MAX(v) FROM ev GROUP BY grp HAVING COUNT(*) > 10 ORDER BY SUM(v) DESC, grp LIMIT 10`
	for _, clients := range []int{1, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			b.SetParallelism((clients + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					res, err := db.Query(q)
					if err != nil {
						b.Error(err)
						return
					}
					if len(res.Rows) != 10 {
						b.Errorf("got %d rows, want 10", len(res.Rows))
						return
					}
				}
			})
		})
	}
}

// OrderByTopK measures ORDER BY score DESC LIMIT k over a large
// unindexed table: the top-K sink must stop materializing (and stop
// allocating per-row output tuples for) everything below the heap
// threshold.
func BenchmarkOrderByTopK(b *testing.B) {
	db, err := sql.OpenAsync(filepath.Join(b.TempDir(), "e19s.db"), sql.Options{QueryWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE sc (k INT, score INT, name TEXT)`); err != nil {
		b.Fatal(err)
	}
	var tups []value.Tuple
	for i := 0; i < 30000; i++ {
		tups = append(tups, value.Tuple{
			value.NewInt(int64(i)),
			value.NewInt(int64((i * 2654435761) % 1000003)),
			value.NewText(fmt.Sprintf("name-%06d", i)),
		})
	}
	if err := db.InsertBatch("sc", tups); err != nil {
		b.Fatal(err)
	}
	q := `SELECT k, name FROM sc WHERE score >= 100 ORDER BY score DESC LIMIT 5`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 5 {
			b.Fatalf("got %d rows, want 5", len(res.Rows))
		}
	}
}

// JoinSpill measures the memory-bounded hash join: the same partitioned
// join runs unbudgeted (build side fully resident) and under a budget
// far below the build size, so most partitions spill to temp files and
// reload per probe chunk. The gap is the price of staying within
// memory; results are byte-identical either way (TestJoinSpillByteIdentity).
func BenchmarkJoinSpill(b *testing.B) {
	db, err := sql.OpenAsync(filepath.Join(b.TempDir(), "e19sp.db"), sql.Options{QueryWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for _, ddl := range []string{
		`CREATE TABLE dl (k INT, tag TEXT)`,
		`CREATE TABLE fr (fk INT, amt INT)`,
	} {
		if _, err := db.Exec(ddl); err != nil {
			b.Fatal(err)
		}
	}
	var tups []value.Tuple
	for i := 0; i < 400; i++ {
		tups = append(tups, value.Tuple{value.NewInt(int64(i)), value.NewText(fmt.Sprintf("t%d", i))})
	}
	if err := db.InsertBatch("dl", tups); err != nil {
		b.Fatal(err)
	}
	tups = nil
	for i := 0; i < 12000; i++ {
		tups = append(tups, value.Tuple{value.NewInt(int64(i % 400)), value.NewInt(int64(i))})
	}
	if err := db.InsertBatch("fr", tups); err != nil {
		b.Fatal(err)
	}
	q := `SELECT d.tag, f.amt FROM dl d, fr f WHERE f.fk = d.k AND d.k < 50`
	for _, budget := range []int64{0, 64 << 10} {
		name := "budget=unlimited"
		if budget > 0 {
			name = fmt.Sprintf("budget=%dKiB", budget>>10)
		}
		b.Run(name, func(b *testing.B) {
			sel := parseSelect(b, q)
			b.ResetTimer()
			rows := 0
			for i := 0; i < b.N; i++ {
				res, err := db.QueryStmtOptsContext(context.Background(), sel, sql.ExecOpts{MemBudget: budget})
				if err != nil {
					b.Fatal(err)
				}
				rows = len(res.Rows)
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// parseSelect parses a benchmark's SELECT once, so per-query execution
// overrides can ride on ExecOpts.
func parseSelect(b *testing.B, src string) *sql.Select {
	b.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	return stmt.(*sql.Select)
}

// ---------------------------------------------------------------------
// E20 (MVCC snapshot reads): reader latency while the warehouse is
// being reloaded. 16 client goroutines run the paper's sub-tree search
// against ENZYME while a writer loops full harness reloads of the same
// database. Every session query pins the epoch current at statement
// start, so readers never block behind the load; the idle arm is the
// baseline the during-load arm is judged against (target: during-load
// p99 within 2x the idle p99).
func BenchmarkQueryDuringLoad(b *testing.B) {
	f := flats(b, 200, 300, 300)
	alt, err := benchutil.BuildFlats(220, 0, 0, bio.GenOptions{Seed: 43, Cdc6Rate: 0.02, ECLinkRate: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	q := benchutil.Figure9Query
	for _, load := range []bool{false, true} {
		name := "idle"
		if load {
			name = "during-load"
		}
		b.Run(fmt.Sprintf("%s/clients=16", name), func(b *testing.B) {
			eng := warehouse(b, f, nil)
			runQuery(b, eng, q) // warm plan cache and buffer pool
			ctx := context.Background()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			if load {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						flat := f.Enzyme
						if i%2 == 0 {
							flat = alt.Enzyme
						}
						if _, err := eng.HarnessReaderContext(ctx, "hlx_enzyme.DEFAULT",
							hounds.EnzymeTransformer{}, strings.NewReader(flat),
							fmt.Sprintf("v%d", i)); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			var mu sync.Mutex
			var lat []float64
			b.SetParallelism((16 + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				var local []float64
				for pb.Next() {
					t0 := time.Now()
					if _, err := eng.Query(q); err != nil {
						b.Error(err)
						return
					}
					local = append(local, float64(time.Since(t0).Nanoseconds()))
				}
				mu.Lock()
				lat = append(lat, local...)
				mu.Unlock()
			})
			b.StopTimer()
			close(stop)
			wg.Wait()
			if len(lat) > 0 {
				sort.Float64s(lat)
				b.ReportMetric(lat[len(lat)/2], "p50-ns")
				b.ReportMetric(lat[(len(lat)*99)/100], "p99-ns")
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)/secs, "qps")
			}
		})
	}
}
