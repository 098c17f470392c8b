package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"

	"xomatiq/internal/benchutil"
	"xomatiq/internal/bio"
	"xomatiq/internal/hounds"
)

const (
	dbEnzyme = "hlx_enzyme.DEFAULT"
	dbEMBL   = "hlx_embl.inv"
	dbSProt  = "hlx_sprot.all"
)

// sizes is the number of generated entries per paper database.
type sizes struct{ Enzyme, EMBL, SProt int }

// source is one flat file and the hound that reads it.
type source struct {
	db   string
	flat string
	tr   hounds.Transformer
}

// corpus is everything generated from one seed: the engine only ever
// sees the flat files.
type corpus struct {
	flats   *benchutil.Flats
	enzymes []*bio.EnzymeEntry // the entries behind flats.Enzyme, in file order
}

func genOptions(seed int64) bio.GenOptions {
	return bio.GenOptions{Seed: seed, Cdc6Rate: 0.02, ECLinkRate: 0.3}
}

func genCorpus(sz sizes, seed int64) (*corpus, error) {
	f, err := benchutil.BuildFlats(sz.Enzyme, sz.EMBL, sz.SProt, genOptions(seed))
	if err != nil {
		return nil, err
	}
	// BuildFlats does not hand back the entries; the generator is seeded,
	// so asking again yields the same ones.
	return &corpus{flats: f, enzymes: bio.GenEnzymes(sz.Enzyme, genOptions(seed))}, nil
}

// sources lists the non-empty databases of f in load order.
func sources(f *benchutil.Flats) []source {
	all := []source{
		{dbEnzyme, f.Enzyme, hounds.EnzymeTransformer{}},
		{dbEMBL, f.EMBL, hounds.EMBLTransformer{}},
		{dbSProt, f.SProt, hounds.SProtTransformer{}},
	}
	var out []source
	for _, s := range all {
		if s.flat != "" {
			out = append(out, s)
		}
	}
	return out
}

// query is one request text with what the driver needs to know to take
// it apart: the keywords its contains() conditions look up, and which
// result columns name a document of which database.
type query struct {
	kind     string // "lookup", "fig8", "fig9", "fig11"
	text     string
	id       string // lookup only
	keywords []keyword
	docCols  []docCol
}

type keyword struct{ db, token string }
type docCol struct {
	col int
	db  string
}

var (
	fig8 = query{kind: "fig8", text: benchutil.Figure8Query,
		keywords: []keyword{{dbEMBL, "cdc6"}, {dbSProt, "cdc6"}},
		docCols:  []docCol{{0, dbSProt}, {1, dbEMBL}}}
	fig9 = query{kind: "fig9", text: benchutil.Figure9Query,
		keywords: []keyword{{dbEnzyme, "ketone"}},
		docCols:  []docCol{{0, dbEnzyme}}}
	fig11 = query{kind: "fig11", text: benchutil.Figure11Query,
		docCols: []docCol{{0, dbEMBL}}}
)

func lookup(id string) query {
	return query{kind: "lookup", id: id, docCols: []docCol{{0, dbEnzyme}},
		text: `FOR $a IN document("` + dbEnzyme + `")/hlx_enzyme
WHERE $a//enzyme_id = "` + id + `"
RETURN $a//enzyme_id, $a//enzyme_description`}
}

// allEnzymes lists every (id, description) pair; the oracle evaluates it
// natively once instead of one native lookup per id.
const allEnzymes = `FOR $a IN document("` + dbEnzyme + `")/hlx_enzyme
RETURN $a//enzyme_id, $a//enzyme_description`

// paperCycle is the 1 : 4 : 4 mix of the three figures.
var paperCycle = []query{fig8, fig9, fig11, fig9, fig11, fig9, fig11, fig9, fig11}

// idPicker draws enzyme ids with Zipf(s = 1.2) popularity. The rank to
// id mapping is a seeded shuffle, so the hot ids are not simply the
// first ones generated.
type idPicker struct {
	ids  []string
	zipf *rand.Zipf
}

func newIDPicker(ids []string, seed int64) *idPicker {
	rng := rand.New(rand.NewSource(seed))
	shuffled := append([]string(nil), ids...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	return &idPicker{ids: shuffled, zipf: rand.NewZipf(rng, 1.2, 1, uint64(len(shuffled)-1))}
}

func (p *idPicker) next() string { return p.ids[p.zipf.Uint64()] }

// evolver plays the remote ENZYME site releasing updates: each step
// modifies 3 %, removes 1 % and adds 1 % of the entries. A modified
// entry's description ends in "rev N", N being the version that last
// touched it. The first half of the generated entries is never touched,
// so readers always have ids whose answer must not change.
//
// The writer calls step before it publishes; readers call check
// concurrently, hence the lock.
type evolver struct {
	mu      sync.RWMutex
	rng     *rand.Rand
	cur     []*bio.EnzymeEntry
	perStep int
	stable  map[string]bool   // ids never touched
	base    map[string]string // id -> description as generated or added
	removed map[string]bool   // ids a published version dropped
	touched map[string]bool   // ids the newest version modified
	version int
	// gapReads counts lookups that found a touched id missing: Update
	// commits its deletions before its replacement loads, and a reader
	// whose snapshot falls between the two sees neither old nor new.
	gapReads atomic.Int64
}

func newEvolver(enzymes []*bio.EnzymeEntry, seed int64) *evolver {
	e := &evolver{
		rng:     rand.New(rand.NewSource(seed ^ 0x5eed)),
		cur:     append([]*bio.EnzymeEntry(nil), enzymes...),
		perStep: len(enzymes) / 100,
		stable:  map[string]bool{},
		base:    map[string]string{},
		removed: map[string]bool{},
	}
	if e.perStep == 0 {
		e.perStep = 1
	}
	for i, en := range enzymes {
		e.base[en.ID] = en.Description[0]
		if i < len(enzymes)/2 {
			e.stable[en.ID] = true
		}
	}
	return e
}

func withRev(desc string, rev int) string {
	return fmt.Sprintf("%s rev %d.", strings.TrimSuffix(desc, "."), rev)
}

// splitRev undoes withRev: the base description and the rev (0 if none).
func splitRev(desc string) (string, int) {
	i := strings.LastIndex(desc, " rev ")
	if i < 0 {
		return desc, 0
	}
	var rev int
	if _, err := fmt.Sscanf(desc[i:], " rev %d.", &rev); err != nil {
		return desc, 0
	}
	return desc[:i] + ".", rev
}

// step advances to the next version and returns its flat file and how
// many entries differ from the previous one.
func (e *evolver) step() (flat string, changed int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.version++
	var volatile []int
	for i, en := range e.cur {
		if !e.stable[en.ID] {
			volatile = append(volatile, i)
		}
	}
	e.rng.Shuffle(len(volatile), func(i, j int) { volatile[i], volatile[j] = volatile[j], volatile[i] })
	nMod, nDel := 3*e.perStep, e.perStep
	if nMod+nDel > len(volatile) {
		return "", 0, fmt.Errorf("evolver: %d volatile entries left, need %d", len(volatile), nMod+nDel)
	}
	e.touched = map[string]bool{}
	for _, i := range volatile[:nMod] {
		e.touched[e.cur[i].ID] = true
		mod := *e.cur[i]
		mod.Description = []string{withRev(e.base[mod.ID], e.version)}
		e.cur[i] = &mod
	}
	drop := map[int]bool{}
	for _, i := range volatile[nMod : nMod+nDel] {
		drop[i] = true
		e.removed[e.cur[i].ID] = true
	}
	next := make([]*bio.EnzymeEntry, 0, len(e.cur))
	for i, en := range e.cur {
		if !drop[i] {
			next = append(next, en)
		}
	}
	for k := 0; k < e.perStep; k++ {
		add := &bio.EnzymeEntry{
			ID:          fmt.Sprintf("9.9.%d.%d", e.version, k+1),
			Description: []string{"Curated addition."},
			Catalytic:   []string{"ATP + H(2)O = phosphate + O(2)."},
		}
		e.base[add.ID] = add.Description[0]
		next = append(next, add)
	}
	e.cur = next
	flat, err = e.renderLocked()
	return flat, nMod + nDel + e.perStep, err
}

func (e *evolver) renderLocked() (string, error) {
	var buf bytes.Buffer
	if err := bio.WriteEnzyme(&buf, e.cur); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// render returns the flat file of the current version.
func (e *evolver) render() (string, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.renderLocked()
}

// docs is the number of entries in the current version.
func (e *evolver) docs() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.cur)
}

// check judges one (id, description) row a reader got back while
// versions are being published. seen is that reader's memory of the
// highest rev it has observed per id; a rev may never go backwards for
// it, never exceed the newest version handed to the writer, and an
// untouched id must read exactly as generated.
func (e *evolver) check(id, desc string, seen map[string]int) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	want, known := e.base[id]
	if !known {
		return fmt.Errorf("id %s was never published", id)
	}
	got, rev := splitRev(desc)
	switch {
	case got != want:
		return fmt.Errorf("id %s reads %q, generated as %q", id, desc, want)
	case e.stable[id] && rev != 0:
		return fmt.Errorf("untouched id %s carries rev %d", id, rev)
	case rev > e.version:
		return fmt.Errorf("id %s carries rev %d, newest version is %d", id, rev, e.version)
	case rev < seen[id]:
		return fmt.Errorf("id %s went back from rev %d to rev %d", id, seen[id], rev)
	}
	seen[id] = rev
	return nil
}

// mayBeMissing reports whether a lookup of id may come back empty: the
// id was removed, or the version being applied is rewriting it.
func (e *evolver) mayBeMissing(id string) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.touched[id] && !e.removed[id] {
		e.gapReads.Add(1)
	}
	return e.removed[id] || e.touched[id]
}
