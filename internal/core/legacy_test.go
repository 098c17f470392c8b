package core

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xomatiq/internal/bio"
	"xomatiq/internal/faultfs"
	"xomatiq/internal/hounds"
)

// The files under testdata/legacy were written by the commit before the
// compact wire format (testdata/legacy/gen/main.go, run from a checkout
// of it): every INT and BOOL is fixed-width, every page image in the log
// is 8192 bytes, and three harnesses have left two dead generations of
// index pages that nothing points to. answers.json is what that build
// answered.

func unpackLegacy(t *testing.T, dir string, names ...string) {
	t.Helper()
	for _, name := range names {
		in, err := os.Open(filepath.Join("testdata", "legacy", name+".gz"))
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, zr); err != nil {
			t.Fatal(err)
		}
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
		in.Close()
	}
}

// legacyAnswer is one query of answers.json: its text and the rows the
// parent commit returned for it.
type legacyAnswer struct {
	Query string     `json:"query"`
	Rows  [][]string `json:"rows"`
}

func legacyAnswers(t *testing.T, which string) map[string]legacyAnswer {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy", "answers.json"))
	if err != nil {
		t.Fatal(err)
	}
	var all map[string]map[string]legacyAnswer
	if err := json.Unmarshal(raw, &all); err != nil {
		t.Fatal(err)
	}
	if len(all[which]) < 4 {
		t.Fatalf("answers.json holds %d queries for %q", len(all[which]), which)
	}
	return all[which]
}

func checkLegacyAnswers(t *testing.T, e *Engine, want map[string]legacyAnswer) {
	t.Helper()
	for name, a := range want {
		res, err := e.Query(a.Query)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Mode != ModeSQL {
			t.Errorf("%s ran in %s mode", name, res.Mode)
		}
		if !reflect.DeepEqual(res.Rows, a.Rows) {
			t.Errorf("%s: a file from before the compact format answers\n got %v\nwant %v", name, res.Rows, a.Rows)
		}
	}
}

// checkAllBTrees checks that every index of an opened legacy file is a
// B-tree that owns pages. Open refuses a catalog row flagged as a hash
// index, so a fixture that opens carries none.
func checkAllBTrees(t *testing.T, e *Engine) {
	t.Helper()
	indexes := 0
	for _, ts := range e.DB().Stats().Tables {
		indexes += len(ts.Indexes)
		for _, ix := range ts.Indexes {
			name, _, _ := strings.Cut(ix, "(")
			if ts.IndexPages[name] == 0 || !strings.Contains(ix, "(btree ") {
				t.Errorf("index %s of %s owns %d pages", ix, ts.Name, ts.IndexPages[name])
			}
		}
	}
	if indexes == 0 {
		t.Error("legacy file lists no index")
	}
}

// TestLegacyFileOpens: a cleanly closed warehouse from the parent commit
// opens, answers the paper's queries as it did there, gives its leaked
// pages to the free list, takes an Update, and stays consistent —
// records of both wire forms then share its heaps.
func TestLegacyFileOpens(t *testing.T) {
	dir := t.TempDir()
	unpackLegacy(t, dir, "clean.db")
	e, err := Open(NewConfig(filepath.Join(dir, "clean.db")))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.DB().CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	checkAllBTrees(t, e)
	st := e.DB().Stats()
	if _, index := pagesOwned(st); st.FreePages < index {
		t.Errorf("legacy file of %d pages: %d index pages live, %d free; the dead generations should outweigh the live one",
			st.FilePages, index, st.FreePages)
	}
	checkLegacyAnswers(t, e, legacyAnswers(t, "clean"))

	entries := bio.GenEnzymes(16, bio.GenOptions{Seed: 11, Cdc6Rate: 0.5, ECLinkRate: 0.3})
	entries = append(entries[:4], entries[6:]...)
	src := hounds.NewSimSource("enzyme", enzymeFlat(t, entries))
	if err := e.RegisterSource("hlx_enzyme.DEFAULT", src, hounds.EnzymeTransformer{}); err != nil {
		t.Fatal(err)
	}
	cs, err := e.Update("hlx_enzyme.DEFAULT")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Removed) != 2 || len(cs.Added) != 0 || len(cs.Modified) != 0 {
		t.Errorf("update of the legacy warehouse: %+v, want exactly the two dropped entries removed", cs)
	}
	if n, err := e.DocCount("hlx_enzyme.DEFAULT"); err != nil || n != 15 {
		t.Errorf("DocCount after the update = %d, %v; want 15", n, err)
	}
	// A full harness on top: compact rows replace the fixed-width ones,
	// and the trees are rebuilt into the pages the old file leaked.
	before := e.DB().Stats().FilePages
	if _, err := e.Harness("hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	if after := e.DB().Stats().FilePages; after > before {
		t.Errorf("harness over the legacy file grew it from %d to %d pages with %d free", before, after, st.FreePages)
	}
	if err := e.DB().CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	fig8 := legacyAnswers(t, "clean")["fig8-keyword"]
	if res, err := e.Query(fig8.Query); err != nil || !reflect.DeepEqual(res.Rows, fig8.Rows) {
		t.Errorf("Fig. 8 (untouched databases) after update and harness: %v\n got %v\nwant %v", err, res.Rows, fig8.Rows)
	}
}

// TestLegacyLogRecovers: a warehouse from the parent commit, killed with
// a committed Update sitting in its log as full-size page images,
// recovers to what that build answered after the update.
func TestLegacyLogRecovers(t *testing.T) {
	dir := t.TempDir()
	unpackLegacy(t, dir, "crashed.db", "crashed.db.wal")
	e, err := Open(NewConfig(filepath.Join(dir, "crashed.db")))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if !e.DB().Recovered() {
		t.Fatal("the legacy log was not replayed")
	}
	if err := e.DB().CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	checkAllBTrees(t, e)
	checkLegacyAnswers(t, e, legacyAnswers(t, "crashed"))
}

// TestLegacyMigrationCrashSweep cuts the power at every counted disk
// operation of opening clean.db, whose tables still end in Dewey sort
// keys, so that every point of the migration to pre-order intervals is
// a crash point. Whatever the cut, the rebooted file opens consistent,
// with no dewey column left, and answers as the legacy build did.
func TestLegacyMigrationCrashSweep(t *testing.T) {
	dir := t.TempDir()
	unpackLegacy(t, dir, "clean.db")
	image, err := os.ReadFile(filepath.Join(dir, "clean.db"))
	if err != nil {
		t.Fatal(err)
	}
	want := legacyAnswers(t, "clean")
	// seeded returns a disk holding clean.db and the op count it took.
	seeded := func() (*faultfs.FS, int64) {
		fs := faultfs.New(1)
		f, err := fs.OpenFile("clean.db")
		if err == nil {
			_, err = f.WriteAt(image, 0)
		}
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			t.Fatal(err)
		}
		return fs, fs.Ops()
	}
	open := func(fs *faultfs.FS) (*Engine, error) {
		cfg := NewConfig("clean.db")
		cfg.FS = fs
		return Open(cfg)
	}
	fs, start := seeded()
	e, err := open(fs)
	if err != nil {
		t.Fatal(err)
	}
	total := fs.Ops() - start
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for k := int64(0); k < total; k++ {
		fs, start := seeded()
		fs.CrashAt(start + k)
		if _, err := open(fs); !errors.Is(err, faultfs.ErrCrashed) {
			t.Fatalf("open with the power cut at op %d of %d: err = %v, want ErrCrashed", k, total, err)
		}
		e, err := open(fs.Reboot())
		if err != nil {
			t.Fatalf("reopen after the cut at op %d of %d: %v", k, total, err)
		}
		if e.DB().Recovered() {
			recovered++
		}
		if err := e.DB().CheckConsistency(); err != nil {
			t.Fatalf("cut at op %d of %d: %v", k, total, err)
		}
		rows, err := e.DB().Query(`SELECT * FROM nodes LIMIT 1`)
		if err != nil {
			t.Fatal(err)
		}
		if cols := rows.Columns; cols[len(cols)-1] != "last_desc" {
			t.Fatalf("cut at op %d of %d: nodes columns after reopen %v", k, total, cols)
		}
		checkLegacyAnswers(t, e, want)
		if t.Failed() {
			t.Fatalf("cut at op %d of %d", k, total)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A cut before the migration's commit record reopens the legacy
	// file and migrates it again; a later one replays the log.
	if recovered == 0 || recovered == int(total) {
		t.Errorf("%d of %d cuts replayed a log: the sweep does not straddle the migration's commit", recovered, total)
	}
	t.Logf("%d crash points, %d after the migration's commit", total, recovered)
}
