// legacygen writes the legacy-format fixtures: run it from a checkout of
// the commit BEFORE the compact wire format (9869814). It builds
//
//	clean.db          ENZYME 16 + EMBL 6 + Swiss-Prot 6, three harnesses,
//	                  closed cleanly (fixed-width INTs, leaked index pages)
//	crashed.db(.wal)  ENZYME 16 harnessed, then an Update whose commit sits
//	                  in the log as full-size page images; process killed
//	answers.json      what that build answered on both
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"xomatiq/internal/benchutil"
	"xomatiq/internal/bio"
	"xomatiq/internal/core"
	"xomatiq/internal/hounds"
)

const allIDs = `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
RETURN $a//enzyme_id`

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// answer is one query of answers.json: its text and what it returned.
type answer struct {
	Query string     `json:"query"`
	Rows  [][]string `json:"rows"`
}

func answers(eng *core.Engine, queries map[string]string) map[string]answer {
	out := map[string]answer{}
	for name, q := range queries {
		res, err := eng.Query(q)
		must(err)
		if res.Mode != core.ModeSQL {
			panic(name + " ran natively")
		}
		out[name] = answer{Query: q, Rows: res.Rows}
	}
	return out
}

func main() {
	out := os.Args[1]
	must(os.MkdirAll(out, 0o755))
	opts := bio.GenOptions{Seed: 11, Cdc6Rate: 0.5, ECLinkRate: 0.3}
	f, err := benchutil.BuildFlats(16, 6, 6, opts)
	must(err)
	result := map[string]map[string]answer{}

	eng, err := core.Open(core.NewConfig(filepath.Join(out, "clean.db")))
	must(err)
	for _, s := range []struct {
		db, flat string
		tr       hounds.Transformer
	}{
		{"hlx_enzyme.DEFAULT", f.Enzyme, hounds.EnzymeTransformer{}},
		{"hlx_embl.inv", f.EMBL, hounds.EMBLTransformer{}},
		{"hlx_sprot.all", f.SProt, hounds.SProtTransformer{}},
	} {
		must(eng.RegisterSource(s.db, hounds.NewSimSource(s.db, s.flat), s.tr))
		_, err := eng.Harness(s.db)
		must(err)
	}
	qs := map[string]string{"all-ids": allIDs}
	for _, q := range benchutil.QuerySuite {
		qs[q.Name] = q.Query
	}
	result["clean"] = answers(eng, qs)
	fmt.Println("clean: file pages", eng.DB().Stats().FilePages)
	must(eng.Close())

	eng, err = core.Open(core.NewConfig(filepath.Join(out, "crashed.db")))
	must(err)
	src := hounds.NewSimSource("enzyme", f.Enzyme)
	must(eng.RegisterSource("hlx_enzyme.DEFAULT", src, hounds.EnzymeTransformer{}))
	_, err = eng.Harness("hlx_enzyme.DEFAULT")
	must(err)
	// Revise three entries, drop two, add three.
	entries := bio.GenEnzymes(16, opts)
	for i := 3; i < 6; i++ {
		cp := *entries[i]
		cp.Comments = append([]string{"Revised for the legacy fixture."}, cp.Comments...)
		entries[i] = &cp
	}
	entries = append(entries[:10], entries[12:]...)
	extra := bio.GenEnzymes(60, bio.GenOptions{Seed: 12})
	entries = append(entries, extra[50:53]...)
	var buf bytes.Buffer
	must(bio.WriteEnzyme(&buf, entries))
	src.Publish(buf.String())
	cs, err := eng.Update("hlx_enzyme.DEFAULT")
	must(err)
	fmt.Printf("crashed: update %+v, wal %d bytes\n", cs, eng.DB().Stats().WALBytes)
	enzQs := map[string]string{"all-ids": allIDs}
	for _, name := range []string{"fig9-subtree", "eq-lookup", "keyword-any"} {
		enzQs[name] = qs[name]
	}
	result["crashed"] = answers(eng, enzQs)
	must(eng.DB().Crash())

	js, err := json.Marshal(result)
	must(err)
	must(os.WriteFile(filepath.Join(out, "answers.json"), js, 0o644))
}
