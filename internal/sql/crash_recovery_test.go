package sql_test

// Crash-recovery sweep over a realistic warehouse workload: ENZYME-style
// documents are shredded, modified and deleted while the crashtest
// harness cuts power at every sampled disk operation. After each cut the
// database reopens fault-free and must (a) pass CheckConsistency —
// catalog, heaps and indexes mutually consistent — and (b) recover
// content equal to a committed transaction boundary, verified by
// reconstructing every document and by running an xq2sql query battery
// whose results must match the native evaluator over the reconstructed
// corpus (the shadow in-memory model).

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"xomatiq/internal/bio"
	"xomatiq/internal/hounds"
	"xomatiq/internal/nativexml"
	"xomatiq/internal/shred"
	"xomatiq/internal/sql"
	"xomatiq/internal/storage/crashtest"
	"xomatiq/internal/xmldoc"
	"xomatiq/internal/xq"
	"xomatiq/internal/xq2sql"
)

const crashDBName = "hlx_enzyme.DEFAULT"

// crashQueries is the battery run by every fingerprint: each query goes
// through the xq2sql translation against the warehouse AND through
// nativexml over the reconstructed corpus, and the two must agree.
var crashQueries = []string{
	`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id, $a//enzyme_description`,
	`FOR $e IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
RETURN $e/enzyme_id`,
	`FOR $e IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE contains($e/enzyme_id, "1.")
RETURN $e//enzyme_description`,
}

// enzymeDocs generates n ENZYME entries through the real flat-file
// pipeline (generator -> transformer -> DTD validation).
func enzymeDocs(t testing.TB, n int) []*xmldoc.Document {
	t.Helper()
	var buf bytes.Buffer
	if err := bio.WriteEnzyme(&buf, bio.GenEnzymes(n, bio.GenOptions{Seed: 7, Cdc6Rate: 0.2})); err != nil {
		t.Fatal(err)
	}
	docs, err := hounds.TransformAndValidate(hounds.EnzymeTransformer{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) < n {
		t.Fatalf("generated %d docs, want >= %d", len(docs), n)
	}
	return docs[:n]
}

// modifiedCopy deep-copies a document (serialize + reparse, so the
// original is never mutated across harness reruns) and appends a marker
// element, simulating an updated database entry.
func modifiedCopy(t testing.TB, d *xmldoc.Document) *xmldoc.Document {
	t.Helper()
	cp, err := xmldoc.Parse(d.Serialize(xmldoc.SerializeOptions{NoDecl: true}), xmldoc.ParseOptions{})
	if err != nil {
		t.Fatalf("copy %q: %v", d.Name, err)
	}
	cp.Name = d.Name
	mark := xmldoc.NewElement("revision_note")
	mark.AddText("entry revised")
	cp.Root.AddChild(mark)
	return cp
}

// crashFingerprint reduces the warehouse to a comparable string:
// the serialized reconstruction of every document plus the query
// battery's results — after checking those results against the native
// evaluator on the reconstructed corpus.
func crashFingerprint(db *sql.DB) (string, error) {
	s, err := shred.Open(db)
	if err != nil {
		return "", err
	}
	var names []string
	if s.HasDB(crashDBName) {
		rows, err := s.DB.Query(`SELECT name FROM docs WHERE db = ` + shred.Quote(crashDBName))
		if err != nil {
			return "", err
		}
		for _, r := range rows.Rows {
			names = append(names, r[0].Text())
		}
		sort.Strings(names)
	}
	corpus := nativexml.Corpus{crashDBName: {}}
	var b strings.Builder
	for _, name := range names {
		doc, err := s.ReconstructByName(crashDBName, name)
		if err != nil {
			return "", fmt.Errorf("reconstruct %q: %w", name, err)
		}
		corpus[crashDBName] = append(corpus[crashDBName], doc)
		fmt.Fprintf(&b, "doc %s: %s\n", name, doc.Serialize(xmldoc.SerializeOptions{NoDecl: true}))
	}
	for i, src := range crashQueries {
		q, err := xq.Parse(src)
		if err != nil {
			return "", err
		}
		var sqlRows []string
		tr, err := xq2sql.Translate(s, q, xq2sql.Options{})
		if err != nil {
			return "", fmt.Errorf("translate q%d: %w", i, err)
		}
		res, err := s.DB.Query(tr.SQL)
		if err != nil {
			return "", fmt.Errorf("q%d: %w\nSQL: %s", i, err, tr.SQL)
		}
		for _, row := range res.Rows {
			parts := make([]string, len(row))
			for j, v := range row {
				parts[j] = v.String()
			}
			sqlRows = append(sqlRows, strings.Join(parts, "|"))
		}
		nres, err := nativexml.Eval(corpus, q)
		if err != nil {
			return "", fmt.Errorf("native q%d: %w", i, err)
		}
		var nativeRows []string
		for _, row := range nres.Rows {
			nativeRows = append(nativeRows, strings.Join(row, "|"))
		}
		sort.Strings(sqlRows)
		sort.Strings(nativeRows)
		if strings.Join(sqlRows, ";") != strings.Join(nativeRows, ";") {
			return "", fmt.Errorf("q%d: sql path and shadow model disagree\nsql:    %v\nnative: %v",
				i, sqlRows, nativeRows)
		}
		fmt.Fprintf(&b, "q%d: %s\n", i, strings.Join(sqlRows, ";"))
	}
	return b.String(), nil
}

// crashWorkload builds the mixed shred/update/delete workload, with two
// bulk loads and a dropped table in it so that pages are retired, freed
// and reused along the way. Every step changes the content at one
// commit, the atomicity unit the sweep's recovery invariant is stated
// over.
func crashWorkload(t testing.TB, docs []*xmldoc.Document) crashtest.Workload {
	var store *shred.Store
	batch := func(name string, fn func(db *sql.DB) error) crashtest.Step {
		return crashtest.Step{Name: name, Run: func(db *sql.DB) error {
			if err := db.Begin(); err != nil {
				return err
			}
			if err := fn(db); err != nil {
				return err // batch abandoned; the harness stops here
			}
			return db.Commit()
		}}
	}
	// shredInto shreds ds and inserts them as one chunk into the open
	// batch with the indexes live: Update's small-delta path.
	shredInto := func(ds ...*xmldoc.Document) error {
		sh, err := store.NewShredder(crashDBName)
		if err != nil {
			return err
		}
		chunk := make([]*shred.DocBatch, len(ds))
		for i, d := range ds {
			chunk[i] = sh.Shred(store.ReserveDocID(crashDBName), d)
		}
		if err := store.InsertChunk(crashDBName, chunk); err != nil {
			return err
		}
		for _, b := range chunk {
			store.MergeKeywords(crashDBName, b)
		}
		return nil
	}
	load := func(ds ...*xmldoc.Document) func(*sql.DB) error {
		return func(*sql.DB) error { return shredInto(ds...) }
	}
	// bulk is the loader's shape: retire the trees (DeferIndexes), append
	// the documents as page images in one commit, rebuild the trees into
	// the retired pages (ResumeIndexes). The content changes at the one
	// commit in the middle, so the step is as atomic as a batch; the crash
	// points inside it land in the retire and free, on page images whose
	// free space the log skipped, and in a rebuild that overwrites the
	// pages of the trees the catalog on disk still names.
	bulk := func(name string, ds ...*xmldoc.Document) crashtest.Step {
		return crashtest.Step{Name: name, Run: func(db *sql.DB) error {
			if err := db.DeferIndexes(); err != nil {
				return err
			}
			sh, err := store.NewShredder(crashDBName)
			if err != nil {
				return err
			}
			var chunk []*shred.DocBatch
			for _, d := range ds {
				chunk = append(chunk, sh.Shred(store.ReserveDocID(crashDBName), d))
			}
			// A harvest that came back empty commits nothing: the rebuild
			// then overwrites the old trees with no log to fall back on,
			// only the stale flag DeferIndexes made durable.
			if len(chunk) > 0 {
				if err := db.Begin(); err != nil {
					return err
				}
				if err := store.InsertChunk(crashDBName, chunk); err != nil {
					return err
				}
				if err := db.Commit(); err != nil {
					return err
				}
				for _, b := range chunk {
					store.MergeKeywords(crashDBName, b)
				}
			}
			return db.ResumeIndexes()
		}}
	}
	// scratch fills a table outside the warehouse schema and drop-scratch
	// drops it, so that later steps grow into a dropped heap and tree.
	exec := func(stmts ...string) func(*sql.DB) error {
		return func(db *sql.DB) error {
			for _, q := range stmts {
				if _, err := db.Exec(q); err != nil {
					return err
				}
			}
			return nil
		}
	}
	scratch := []string{`CREATE TABLE IF NOT EXISTS scratch (k INT, pad TEXT)`}
	for i := 0; i < 300; i++ {
		scratch = append(scratch, fmt.Sprintf(`INSERT INTO scratch VALUES (%d, '%s')`, i, strings.Repeat("s", 200)))
	}
	scratch = append(scratch, `CREATE INDEX IF NOT EXISTS idx_scratch ON scratch (k)`)
	return crashtest.Workload{
		Setup: func(db *sql.DB) error {
			s, err := shred.Open(db)
			if err != nil {
				return err
			}
			store = s
			return store.RegisterDB(crashDBName, nil, "")
		},
		Steps: []crashtest.Step{
			batch("load-1", load(docs[0], docs[1])),
			batch("load-2", load(docs[2], docs[3])),
			bulk("bulk", docs[6], docs[7]),
			batch("delete", func(*sql.DB) error {
				return store.DeleteDocument(crashDBName, docs[0].Name)
			}),
			batch("modify", func(*sql.DB) error {
				// Incremental update of an entry: delete + reload the
				// revised document in one transaction.
				if err := store.DeleteDocument(crashDBName, docs[2].Name); err != nil {
					return err
				}
				return shredInto(modifiedCopy(t, docs[2]))
			}),
			batch("scratch", exec(scratch...)),
			batch("load-3", load(docs[4], docs[5])),
			batch("drop-scratch", exec(`DROP TABLE IF EXISTS scratch`)),
			{Name: "checkpoint", Run: (*sql.DB).Checkpoint},
			bulk("bulk-of-nothing"),
			bulk("bulk-2", docs[8], docs[9]),
			batch("delete-2", func(*sql.DB) error {
				return store.DeleteDocument(crashDBName, docs[3].Name)
			}),
		},
		Fingerprint: crashFingerprint,
		Verify:      func(db *sql.DB) error { return db.CheckConsistency() },
	}
}

// TestCrashRecoverySweep is the headline crash test: ≥50 crash points
// across the workload, every reopen consistent and equivalent to a
// committed state. `make crash` runs it by name.
func TestCrashRecoverySweep(t *testing.T) {
	docs := enzymeDocs(t, 10)
	maxPoints := 60
	if testing.Short() {
		maxPoints = 12
	}
	res, err := crashtest.Sweep(crashtest.Config{
		Seed: 42,
		// A small pool and a tiny WAL soft limit force checkpoints
		// mid-workload, putting crash points inside the flush/truncate
		// window where replay idempotency is what saves the file.
		Opts:      sql.Options{PoolPages: 256, WALSoftLimit: 8 << 10},
		MaxPoints: maxPoints,
	}, crashWorkload(t, docs))
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if !testing.Short() && res.Points < 50 {
		t.Fatalf("sweep exercised only %d crash points, want >= 50 (%v)", res.Points, res)
	}
	if res.AtCommitted == 0 {
		t.Errorf("no crash point recovered to a committed boundary: %v", res)
	}
}

// snapshotProbe reduces the warehouse to a comparable string through a
// pinned snapshot: every page access resolves against the snapshot's
// epoch, so a load or delete committing between two probes of the same
// snapshot must not change the result.
func snapshotProbe(db *sql.DB, snap *sql.Snap) (string, error) {
	probes := []string{
		`SELECT name FROM docs WHERE db = ` + shred.Quote(crashDBName),
		`SELECT doc_id, node_id, val FROM values_str WHERE db = ` + shred.Quote(crashDBName),
	}
	var b strings.Builder
	for i, src := range probes {
		stmt, err := sql.Parse(src)
		if err != nil {
			return "", err
		}
		sel, ok := stmt.(*sql.Select)
		if !ok {
			return "", fmt.Errorf("probe %d is not a SELECT", i)
		}
		rows, err := db.QueryStmtOptsContext(context.Background(), sel, sql.ExecOpts{Snap: snap})
		if err != nil {
			return "", fmt.Errorf("probe %d: %w", i, err)
		}
		lines := make([]string, 0, len(rows.Rows))
		for _, row := range rows.Rows {
			parts := make([]string, len(row))
			for j, v := range row {
				parts[j] = v.String()
			}
			lines = append(lines, strings.Join(parts, "|"))
		}
		sort.Strings(lines)
		fmt.Fprintf(&b, "p%d: %s\n", i, strings.Join(lines, ";"))
	}
	return b.String(), nil
}

// TestCrashSweepSnapshotReader is the MVCC crash sweep: a reader pins a
// snapshot before every step and re-reads it after the step commits,
// while the harness cuts power at every sampled disk operation. The
// reader must always see exactly the committed boundary it pinned —
// never a torn epoch — and recovery must still land on a committed
// fingerprint with the reader's epoch pins in play.
func TestCrashSweepSnapshotReader(t *testing.T) {
	docs := enzymeDocs(t, 10)
	maxPoints := 40
	if testing.Short() {
		maxPoints = 10
	}
	w := crashtest.WithSnapshotReader(crashWorkload(t, docs), snapshotProbe)
	res, err := crashtest.Sweep(crashtest.Config{
		Seed:      43,
		Opts:      sql.Options{PoolPages: 256, WALSoftLimit: 8 << 10},
		MaxPoints: maxPoints,
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if res.AtCommitted == 0 {
		t.Errorf("no crash point recovered to a committed boundary: %v", res)
	}
}

// TestCrashSweepSeeds varies the fault seed so pending-write survival
// outcomes (kept / dropped / torn) differ at the same crash points.
func TestCrashSweepSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed matrix is the long form of TestCrashRecoverySweep")
	}
	docs := enzymeDocs(t, 10)
	for _, seed := range []int64{1, 9, 1337} {
		w := crashWorkload(t, docs)
		w.Steps = w.Steps[:4] // shorter workload; the matrix is about fault outcomes
		res, err := crashtest.Sweep(crashtest.Config{
			Seed:      seed,
			Opts:      sql.Options{PoolPages: 256, WALSoftLimit: 8 << 10},
			MaxPoints: 15,
		}, w)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Logf("seed %d: %v", seed, res)
	}
}

// TestCrashSweepRecycledTrees cuts power at every operation of the
// stretch where nothing but the stale flag stands between a crash and
// wrong answers: after a checkpoint (empty log) an index rebuild with
// no load in between overwrites pages of the trees the catalog on disk
// still names — here in a different layout, because a dropped table has
// freed lower pages. DeferIndexes must have made the flag durable first;
// without its sync, several of these seeds recover a catalog pointing
// into half-overwritten trees.
func TestCrashSweepRecycledTrees(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep; the sampled one is TestCrashRecoverySweep")
	}
	docs := enzymeDocs(t, 10)
	for _, seed := range []int64{3, 11, 99} {
		w := crashWorkload(t, docs)
		var steps []crashtest.Step
		for _, s := range w.Steps {
			switch s.Name {
			case "load-1", "load-2", "scratch", "drop-scratch", "checkpoint", "bulk-of-nothing":
				steps = append(steps, s)
			}
		}
		w.Steps = steps
		res, err := crashtest.Sweep(crashtest.Config{
			Seed: seed,
			Opts: sql.Options{PoolPages: 256, WALSoftLimit: 8 << 10},
		}, w)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Logf("seed %d: %v", seed, res)
	}
}
