// Integration tests over the public facade: the end-to-end flows a
// downstream gRNA application would run, exercised through package
// xomatiq only.
package xomatiq_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"xomatiq"
)

func publicEngine(t *testing.T) *xomatiq.Engine {
	t.Helper()
	eng, err := xomatiq.Open(filepath.Join(t.TempDir(), "pub.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func flatten(t *testing.T, entries []*xomatiq.EnzymeEntry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := xomatiq.WriteEnzyme(&buf, entries); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestPublicAPIQuickstartFlow walks the README quick-start end to end.
func TestPublicAPIQuickstartFlow(t *testing.T) {
	eng := publicEngine(t)
	entries := xomatiq.GenEnzymes(50, xomatiq.GenOptions{Seed: 1})
	src := xomatiq.NewSimSource("expasy", flatten(t, entries))
	if err := eng.RegisterSource("hlx_enzyme.DEFAULT", src, xomatiq.EnzymeTransformer{}); err != nil {
		t.Fatal(err)
	}
	n, err := eng.Harness("hlx_enzyme.DEFAULT")
	if err != nil || n != 51 {
		t.Fatalf("Harness = %d, %v", n, err)
	}
	res, err := eng.Query(`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id, $a//enzyme_description`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != xomatiq.ModeSQL {
		t.Errorf("Mode = %v", res.Mode)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	if !strings.Contains(res.Table(), "enzyme_id") {
		t.Error("Table() missing header")
	}
	if !strings.Contains(res.XML(), "<results>") {
		t.Error("XML() missing root")
	}
	doc, err := eng.Document("hlx_enzyme.DEFAULT", res.Rows[0][0])
	if err != nil || !strings.Contains(doc, "<db_entry>") {
		t.Errorf("Document = %v", err)
	}
}

// TestPublicAPIThreeDatabaseScenario loads all three paper databases and
// runs each figure's query.
func TestPublicAPIThreeDatabaseScenario(t *testing.T) {
	eng := publicEngine(t)
	opts := xomatiq.GenOptions{Seed: 7, Cdc6Rate: 0.1, ECLinkRate: 0.5}
	enzymes := xomatiq.GenEnzymes(20, opts)
	var ids []string
	for _, e := range enzymes {
		ids = append(ids, e.ID)
	}
	var embl, sprot bytes.Buffer
	if err := xomatiq.WriteEMBL(&embl, xomatiq.GenEMBL(60, "inv", ids, opts)); err != nil {
		t.Fatal(err)
	}
	if err := xomatiq.WriteSProt(&sprot, xomatiq.GenSProt(60, opts)); err != nil {
		t.Fatal(err)
	}
	regs := []struct {
		db, flat string
		tr       xomatiq.Transformer
	}{
		{"hlx_enzyme.DEFAULT", flatten(t, enzymes), xomatiq.EnzymeTransformer{}},
		{"hlx_embl.inv", embl.String(), xomatiq.EMBLTransformer{}},
		{"hlx_sprot.all", sprot.String(), xomatiq.SProtTransformer{}},
	}
	for _, r := range regs {
		if err := eng.RegisterSource(r.db, xomatiq.NewSimSource(r.db, r.flat), r.tr); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Harness(r.db); err != nil {
			t.Fatalf("harness %s: %v", r.db, err)
		}
	}
	queries := []string{
		// Figure 8.
		`FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
    $b IN document("hlx_sprot.all")/hlx_n_sequence
WHERE contains($a, "cdc6", any) AND contains($b, "cdc6", any)
RETURN $b//sprot_accession_number, $a//embl_accession_number`,
		// Figure 9.
		`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id, $a//enzyme_description`,
		// Figure 11.
		`FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
    $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a//qualifier[@qualifier_type = "EC number"] = $b/enzyme_id
RETURN $Accession_Number = $a//embl_accession_number,
       $Accession_Description = $a//description`,
	}
	for i, q := range queries {
		res, err := eng.Query(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(res.Rows) == 0 {
			t.Errorf("query %d returned no rows", i)
		}
	}
}

// TestPublicAPIUpdateCycle exercises the incremental update + trigger
// flow through the facade.
func TestPublicAPIUpdateCycle(t *testing.T) {
	eng := publicEngine(t)
	entries := xomatiq.GenEnzymes(10, xomatiq.GenOptions{Seed: 4})
	src := xomatiq.NewSimSource("expasy", flatten(t, entries))
	if err := eng.RegisterSource("hlx_enzyme.DEFAULT", src, xomatiq.EnzymeTransformer{}); err != nil {
		t.Fatal(err)
	}
	var fired []xomatiq.ChangeSet
	eng.Bus().Subscribe(func(tr xomatiq.Trigger) { fired = append(fired, tr.Change) })
	if _, err := eng.Harness("hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	v2 := append(entries, &xomatiq.EnzymeEntry{ID: "8.8.8.8", Description: []string{"New."}})
	src.Publish(flatten(t, v2))
	cs, err := eng.Update("hlx_enzyme.DEFAULT")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Added) != 1 || cs.Added[0] != "8.8.8.8" {
		t.Errorf("ChangeSet = %+v", cs)
	}
	if len(fired) != 2 {
		t.Errorf("triggers = %d", len(fired))
	}
}

// TestPublicAPINoIndexConfig verifies correctness is preserved with all
// secondary indexes of the shredding schema dropped.
func TestPublicAPINoIndexConfig(t *testing.T) {
	eng, err := xomatiq.Open(filepath.Join(t.TempDir(), "noidx.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dropShredIndexes(t, eng.DB())
	entries := xomatiq.GenEnzymes(20, xomatiq.GenOptions{Seed: 9})
	src := xomatiq.NewSimSource("expasy", flatten(t, entries))
	if err := eng.RegisterSource("hlx_enzyme.DEFAULT", src, xomatiq.EnzymeTransformer{}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Harness("hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE $a//enzyme_id = "1.14.17.3"
RETURN $a//enzyme_description`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !strings.Contains(res.Rows[0][0], "Peptidylglycine") {
		t.Errorf("no-index query = %v", res.Rows)
	}
}
