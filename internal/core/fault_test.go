package core

// Engine-level fault tests: I/O errors and power cuts injected while the
// warehouse is harnessed or incrementally updated. The engine's contract
// under a mid-load fault is the chunked-commit one: the warehouse holds a
// committed prefix, stays structurally consistent, and a subsequent
// harness replaces it wholesale.

import (
	"errors"
	"fmt"
	"testing"

	"xomatiq/internal/bio"
	"xomatiq/internal/faultfs"
	"xomatiq/internal/hounds"
	"xomatiq/internal/value"
)

const faultWH = "hlx_enzyme.DEFAULT"

func faultEngine(t testing.TB, fs *faultfs.FS) *Engine {
	t.Helper()
	cfg := NewConfig("wh.db")
	cfg.FS = fs
	cfg.PoolPages = 256
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func registerEnzyme(t testing.TB, e *Engine, flat string) {
	t.Helper()
	src := hounds.NewSimSource("enzyme", flat)
	if err := e.RegisterSource(faultWH, src, hounds.EnzymeTransformer{}); err != nil {
		t.Fatal(err)
	}
}

// TestHarnessFaultSweep injects one I/O error at sampled op offsets
// inside Harness. Whatever the offset, the warehouse must stay
// consistent (a committed prefix of chunks), and the next harness must
// replace it with the full harvest.
func TestHarnessFaultSweep(t *testing.T) {
	flat := enzymeFlat(t, bio.GenEnzymes(3, bio.GenOptions{Seed: 5}))

	// Fault-free run: learn the op span of a harness and the doc count.
	fs := faultfs.New(77)
	e := faultEngine(t, fs)
	registerEnzyme(t, e, flat)
	start := fs.Ops()
	wantDocs, err := e.Harness(faultWH)
	if err != nil {
		t.Fatal(err)
	}
	harnessOps := fs.Ops() - start
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if harnessOps < 10 {
		t.Fatalf("harness consumed %d ops; sweep would be vacuous", harnessOps)
	}

	stride := harnessOps/25 + 1
	for k := int64(0); k < harnessOps; k += stride {
		fs := faultfs.New(77)
		e := faultEngine(t, fs)
		registerEnzyme(t, e, flat)
		fs.FailAt(fs.Ops()+k, faultfs.FaultErr)

		if _, herr := e.Harness(faultWH); herr != nil && !errors.Is(herr, faultfs.ErrInjected) {
			t.Fatalf("op +%d: harness err = %v, want ErrInjected in chain", k, herr)
		}
		if cerr := e.DB().CheckConsistency(); cerr != nil {
			t.Fatalf("op +%d: inconsistent after harness fault: %v", k, cerr)
		}
		// Recovery contract: harness again, wholesale.
		n, rerr := e.Harness(faultWH)
		if rerr != nil {
			t.Fatalf("op +%d: re-harness after fault: %v", k, rerr)
		}
		if n != wantDocs {
			t.Fatalf("op +%d: re-harness loaded %d docs, want %d", k, n, wantDocs)
		}
		got, derr := e.DocCount(faultWH)
		if derr != nil || got != wantDocs {
			t.Fatalf("op +%d: DocCount = %d, %v; want %d", k, got, derr, wantDocs)
		}
		if err := e.Close(); err != nil {
			t.Fatalf("op +%d: close: %v", k, err)
		}
	}
}

// TestUpdateFaultSweep injects one I/O error at sampled op offsets
// inside an incremental Update. A failed update may leave a committed
// sub-delta (the deletions commit before the loads), so the assertions
// are consistency plus the documented recovery path: a full harness.
func TestUpdateFaultSweep(t *testing.T) {
	entries := bio.GenEnzymes(4, bio.GenOptions{Seed: 8})
	flat := enzymeFlat(t, entries)
	mod := make([]*bio.EnzymeEntry, len(entries))
	copy(mod, entries)
	mod = append(mod[:1], mod[2:]...) // drop one entry
	changed := *mod[1]                // revise another
	changed.Comments = append([]string{"Revised note."}, changed.Comments...)
	mod[1] = &changed
	flat2 := enzymeFlat(t, mod)

	setup := func(fs *faultfs.FS) (*Engine, *hounds.SimSource) {
		e := faultEngine(t, fs)
		src := hounds.NewSimSource("enzyme", flat)
		if err := e.RegisterSource(faultWH, src, hounds.EnzymeTransformer{}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Harness(faultWH); err != nil {
			t.Fatal(err)
		}
		src.Publish(flat2)
		return e, src
	}

	fs := faultfs.New(99)
	e, _ := setup(fs)
	start := fs.Ops()
	cs, err := e.Update(faultWH)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Empty() {
		t.Fatal("reference update applied no delta; test is vacuous")
	}
	updateOps := fs.Ops() - start
	wantDocs, err := e.DocCount(faultWH)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if updateOps < 5 {
		t.Fatalf("update consumed %d ops; sweep would be vacuous", updateOps)
	}

	stride := updateOps/25 + 1
	for k := int64(0); k < updateOps; k += stride {
		fs := faultfs.New(99)
		e, _ := setup(fs)
		fs.FailAt(fs.Ops()+k, faultfs.FaultErr)

		_, uerr := e.Update(faultWH)
		if uerr != nil && !errors.Is(uerr, faultfs.ErrInjected) {
			t.Fatalf("op +%d: update err = %v, want ErrInjected in chain", k, uerr)
		}
		if cerr := e.DB().CheckConsistency(); cerr != nil {
			t.Fatalf("op +%d: inconsistent after update fault: %v", k, cerr)
		}
		if uerr == nil {
			// The fault was never reached (Update's op usage can shrink
			// when the faulted run diverges) or absorbed; the update must
			// then have fully applied.
			if got, derr := e.DocCount(faultWH); derr != nil || got != wantDocs {
				t.Fatalf("op +%d: clean update DocCount = %d, %v; want %d", k, got, derr, wantDocs)
			}
		} else {
			// Documented recovery from a half-applied delta: re-harness.
			if _, rerr := e.Harness(faultWH); rerr != nil {
				t.Fatalf("op +%d: harness after failed update: %v", k, rerr)
			}
			if got, derr := e.DocCount(faultWH); derr != nil || got != wantDocs {
				t.Fatalf("op +%d: recovered DocCount = %d, %v; want %d", k, got, derr, wantDocs)
			}
			cs, uerr2 := e.Update(faultWH)
			if uerr2 != nil || !cs.Empty() {
				t.Fatalf("op +%d: update after recovery = %+v, %v; want empty delta", k, cs, uerr2)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatalf("op +%d: close: %v", k, err)
		}
	}
}

// TestUpdateDictionaryFaultSweep injects one I/O error at every disk op
// of an Update whose revised entry brings two paths the warehouse has
// never seen (prosite_reference and its attribute). Wherever the fault
// lands, the store's in-memory dictionaries must describe what committed:
// every nodes.path_id has a paths row, and contains() over a word every
// entry carries finds every entry — after the failure, after the
// documented recovery (a full re-harness) and after a reopen.
func TestUpdateDictionaryFaultSweep(t *testing.T) {
	entries := make([]*bio.EnzymeEntry, 5)
	for i := range entries {
		entries[i] = &bio.EnzymeEntry{
			ID:          fmt.Sprintf("1.1.1.%d", i+1),
			Description: []string{fmt.Sprintf("Alcohol oxidase %d.", i+1)},
		}
	}
	flat := enzymeFlat(t, entries)
	revised := *entries[2]
	revised.PrositeRefs = []string{"PDOC00080"}
	entries[2] = &revised
	flat2 := enzymeFlat(t, entries)

	setup := func(fs *faultfs.FS) *Engine {
		e := faultEngine(t, fs)
		src := hounds.NewSimSource("enzyme", flat)
		if err := e.RegisterSource(faultWH, src, hounds.EnzymeTransformer{}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Harness(faultWH); err != nil {
			t.Fatal(err)
		}
		src.Publish(flat2)
		return e
	}
	// check asserts that the dictionaries agree with the committed tables.
	check := func(e *Engine, when string, wantDocs int) {
		t.Helper()
		if err := e.DB().CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		known := map[int64]bool{}
		for _, r := range sqlRows(t, e, `SELECT path_id FROM paths WHERE db = 'hlx_enzyme.DEFAULT'`) {
			known[r[0].Int()] = true
		}
		for _, r := range sqlRows(t, e, `SELECT DISTINCT path_id FROM nodes WHERE db = 'hlx_enzyme.DEFAULT'`) {
			if !known[r[0].Int()] {
				t.Fatalf("%s: nodes reference path_id %d, which has no paths row", when, r[0].Int())
			}
		}
		docs, err := e.DocCount(faultWH)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if wantDocs >= 0 && docs != wantDocs {
			t.Fatalf("%s: DocCount = %d, want %d", when, docs, wantDocs)
		}
		res, err := e.Query(`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//enzyme_description, "oxidase")
RETURN $a//enzyme_id`)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if len(res.Rows) != docs {
			t.Fatalf("%s: contains() found %d of %d entries", when, len(res.Rows), docs)
		}
	}

	fs := faultfs.New(31)
	e := setup(fs)
	start := fs.Ops()
	if cs, err := e.Update(faultWH); err != nil || len(cs.Modified) != 1 {
		t.Fatalf("reference update = %+v, %v; want one modified entry", cs, err)
	}
	updateOps := fs.Ops() - start
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if updateOps < 5 {
		t.Fatalf("update consumed %d ops; sweep would be vacuous", updateOps)
	}

	failed := 0
	for k := int64(0); k < updateOps; k++ {
		fs := faultfs.New(31)
		e := setup(fs)
		fs.FailAt(fs.Ops()+k, faultfs.FaultErr)
		when := fmt.Sprintf("op +%d", k)
		_, uerr := e.Update(faultWH)
		if uerr != nil && !errors.Is(uerr, faultfs.ErrInjected) {
			t.Fatalf("%s: update err = %v, want ErrInjected in chain", when, uerr)
		}
		if uerr != nil {
			failed++
		}
		check(e, when+", after the update", -1)
		if _, err := e.Harness(faultWH); err != nil {
			t.Fatalf("%s: re-harness: %v", when, err)
		}
		check(e, when+", after the re-harness", len(entries))
		if err := e.Close(); err != nil {
			t.Fatalf("%s: close: %v", when, err)
		}
		e = faultEngine(t, fs)
		check(e, when+", after reopen", len(entries))
		if err := e.Close(); err != nil {
			t.Fatalf("%s: close: %v", when, err)
		}
	}
	if failed == 0 {
		t.Fatal("no injected fault failed the update; the sweep is vacuous")
	}
	t.Logf("%d ops swept, %d failed the update", updateOps, failed)
}

// TestRegisterFaultLeavesNoDatabase: a registration whose warehouses
// row fails to commit (its first disk op, the WAL write) leaves the
// database unregistered in memory too, so a retry writes the row and the
// database survives a reopen with its harvest.
func TestRegisterFaultLeavesNoDatabase(t *testing.T) {
	flat := enzymeFlat(t, bio.GenEnzymes(3, bio.GenOptions{Seed: 5}))
	fs := faultfs.New(5)
	e := faultEngine(t, fs)
	fs.FailAt(fs.Ops(), faultfs.FaultErr)
	src := hounds.NewSimSource("enzyme", flat)
	if err := e.RegisterSource(faultWH, src, hounds.EnzymeTransformer{}); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("registration through the fault = %v, want ErrInjected in chain", err)
	}
	if dbs := e.Databases(); len(dbs) != 0 {
		t.Errorf("Databases after the failed registration = %v, want none", dbs)
	}
	registerEnzyme(t, e, flat)
	n, err := e.Harness(faultWH)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e = faultEngine(t, fs)
	defer e.Close()
	if dbs := e.Databases(); len(dbs) != 1 || dbs[0] != faultWH {
		t.Errorf("Databases after reopen = %v, want [%s]", dbs, faultWH)
	}
	if got, err := e.DocCount(faultWH); err != nil || got != n {
		t.Errorf("DocCount after reopen = %d, %v; want %d", got, err, n)
	}
	res, err := e.Query(`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme RETURN $a//enzyme_id`)
	if err != nil {
		t.Fatalf("query after reopen: %v", err)
	}
	if len(res.Rows) != n {
		t.Errorf("query after reopen returned %d rows, want %d", len(res.Rows), n)
	}
}

// TestHarnessCrashReopen cuts power mid-harness, reboots, and reopens
// the warehouse: recovery must land on a consistent committed prefix,
// and a fresh harness must complete the load.
func TestHarnessCrashReopen(t *testing.T) {
	flat := enzymeFlat(t, bio.GenEnzymes(3, bio.GenOptions{Seed: 5}))

	fs := faultfs.New(13)
	e := faultEngine(t, fs)
	registerEnzyme(t, e, flat)
	start := fs.Ops()
	wantDocs, err := e.Harness(faultWH)
	if err != nil {
		t.Fatal(err)
	}
	harnessOps := fs.Ops() - start
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	fs = faultfs.New(13)
	e = faultEngine(t, fs)
	registerEnzyme(t, e, flat)
	fs.CrashAt(fs.Ops() + harnessOps/2)
	if _, herr := e.Harness(faultWH); !errors.Is(herr, faultfs.ErrCrashed) {
		t.Fatalf("harness through the cut err = %v, want ErrCrashed in chain", herr)
	}
	// The process is dead; abandon the engine and reboot the disk.
	e2 := faultEngine(t, fs.Reboot())
	defer e2.Close()
	if cerr := e2.DB().CheckConsistency(); cerr != nil {
		t.Fatalf("inconsistent after crash reopen: %v", cerr)
	}
	got, derr := e2.DocCount(faultWH)
	if derr != nil {
		t.Fatal(derr)
	}
	if got < 0 || got > wantDocs {
		t.Fatalf("recovered DocCount = %d, want a committed prefix of %d", got, wantDocs)
	}
	registerEnzyme(t, e2, flat)
	n, rerr := e2.Harness(faultWH)
	if rerr != nil {
		t.Fatalf("harness after crash recovery: %v", rerr)
	}
	if n != wantDocs {
		t.Fatalf("post-crash harness loaded %d docs, want %d", n, wantDocs)
	}
	res, qerr := e2.Query(`FOR $e IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
RETURN $e/enzyme_id`)
	if qerr != nil {
		t.Fatalf("query after crash recovery: %v", qerr)
	}
	if len(res.Rows) == 0 {
		t.Fatal("query after crash recovery returned no rows")
	}
}

// sqlRows runs a SELECT against the committed warehouse.
func sqlRows(t testing.TB, e *Engine, q string) []value.Tuple {
	t.Helper()
	rows, err := e.DB().Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return rows.Rows
}
