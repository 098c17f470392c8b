// Package benchutil builds the synthetic workloads shared by the
// benchmark ledger (bench/), the demo-data generator (cmd/genload) and
// the root tests.
package benchutil

import (
	"bytes"
	"fmt"
	"path/filepath"

	"xomatiq/internal/bio"
	"xomatiq/internal/core"
	"xomatiq/internal/hounds"
	"xomatiq/internal/nativexml"
)

// Flats holds the rendered flat files of one synthetic corpus.
type Flats struct {
	Enzyme    string
	EMBL      string
	SProt     string
	EnzymeIDs []string
}

// BuildFlats renders a corpus of the three paper databases.
func BuildFlats(nEnzyme, nEMBL, nSProt int, opts bio.GenOptions) (*Flats, error) {
	enz := bio.GenEnzymes(nEnzyme, opts)
	ids := make([]string, len(enz))
	for i, e := range enz {
		ids[i] = e.ID
	}
	var f Flats
	f.EnzymeIDs = ids
	var buf bytes.Buffer
	if err := bio.WriteEnzyme(&buf, enz); err != nil {
		return nil, err
	}
	f.Enzyme = buf.String()
	if nEMBL > 0 {
		buf.Reset()
		if err := bio.WriteEMBL(&buf, bio.GenEMBL(nEMBL, "inv", ids, opts)); err != nil {
			return nil, err
		}
		f.EMBL = buf.String()
	}
	if nSProt > 0 {
		buf.Reset()
		if err := bio.WriteSProt(&buf, bio.GenSProt(nSProt, opts)); err != nil {
			return nil, err
		}
		f.SProt = buf.String()
	}
	return &f, nil
}

// Warehouse opens an engine in dir and harnesses the corpus into it.
// Pass cfgMod to tweak the configuration.
func Warehouse(dir string, f *Flats, cfgMod func(*core.Config)) (*core.Engine, error) {
	cfg := core.NewConfig(filepath.Join(dir, "bench.db"))
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	eng, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	regs := []struct {
		db   string
		flat string
		tr   hounds.Transformer
	}{
		{"hlx_enzyme.DEFAULT", f.Enzyme, hounds.EnzymeTransformer{}},
		{"hlx_embl.inv", f.EMBL, hounds.EMBLTransformer{}},
		{"hlx_sprot.all", f.SProt, hounds.SProtTransformer{}},
	}
	for _, r := range regs {
		if r.flat == "" {
			continue
		}
		if err := eng.RegisterSource(r.db, hounds.NewSimSource(r.db, r.flat), r.tr); err != nil {
			eng.Close()
			return nil, err
		}
		if _, err := eng.Harness(r.db); err != nil {
			eng.Close()
			return nil, fmt.Errorf("harness %s: %w", r.db, err)
		}
	}
	return eng, nil
}

// Corpus builds the equivalent in-memory corpus for the native baseline.
func Corpus(f *Flats) (nativexml.Corpus, error) {
	out := nativexml.Corpus{}
	add := func(db, flat string, tr hounds.Transformer) error {
		if flat == "" {
			return nil
		}
		docs, err := tr.Transform(bytes.NewReader([]byte(flat)))
		if err != nil {
			return err
		}
		out[db] = docs
		return nil
	}
	if err := add("hlx_enzyme.DEFAULT", f.Enzyme, hounds.EnzymeTransformer{}); err != nil {
		return nil, err
	}
	if err := add("hlx_embl.inv", f.EMBL, hounds.EMBLTransformer{}); err != nil {
		return nil, err
	}
	if err := add("hlx_sprot.all", f.SProt, hounds.SProtTransformer{}); err != nil {
		return nil, err
	}
	return out, nil
}

// Queries: the paper's three figures, in canonical text.
const (
	Figure8Query = `FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
    $b IN document("hlx_sprot.all")/hlx_n_sequence
WHERE contains($a, "cdc6", any) AND contains($b, "cdc6", any)
RETURN $b//sprot_accession_number, $a//embl_accession_number`

	Figure9Query = `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id, $a//enzyme_description`

	Figure11Query = `FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
    $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a//qualifier[@qualifier_type = "EC number"] = $b/enzyme_id
RETURN $Accession_Number = $a//embl_accession_number,
       $Accession_Description = $a//description`
)

// QuerySuite is a mixed workload: the three paper queries plus an
// equality lookup and an any-level keyword search.
var QuerySuite = []struct {
	Name  string
	Query string
	// Needs declares which databases must be loaded.
	NeedsEMBL, NeedsSProt bool
}{
	{"fig9-subtree", Figure9Query, false, false},
	{"fig8-keyword", Figure8Query, true, true},
	{"fig11-join", Figure11Query, true, false},
	{"eq-lookup", `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE $a//enzyme_id = "1.14.17.3"
RETURN $a//enzyme_description`, false, false},
	{"keyword-any", `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a, "copper", any)
RETURN $a//enzyme_id`, false, false},
}
