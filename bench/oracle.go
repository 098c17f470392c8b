package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"

	"xomatiq/internal/benchutil"
	"xomatiq/internal/core"
	"xomatiq/internal/nativexml"
	"xomatiq/internal/xq"
)

// answer identifies a result set regardless of row order: the row count
// and the SHA-256 of the sorted rows.
type answer struct {
	rows int
	sum  [sha256.Size]byte
}

func digest(rows [][]string) answer {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(lines)
	return answer{rows: len(rows), sum: sha256.Sum256([]byte(strings.Join(lines, "\x1e")))}
}

// oracle holds the answers the warehouse must give for one corpus,
// computed by the native XML evaluator over the same flat files — an
// implementation that shares no code with the XQ2SQL path under test.
// Only the answers are kept; the document trees are dropped so they do
// not sit in the measured process's memory.
type oracle struct {
	figs    map[string]answer   // per figure the corpus has the databases for
	enzymes map[string]string   // enzyme id -> description: the row of each point lookup
	fig9    map[string]struct{} // ids Fig. 9 returns
	docs    map[string]int      // database -> number of documents
}

func buildOracle(f *benchutil.Flats) (*oracle, error) {
	c, err := benchutil.Corpus(f)
	if err != nil {
		return nil, err
	}
	eval := func(text string) ([][]string, error) {
		q, err := xq.Parse(text)
		if err != nil {
			return nil, err
		}
		res, err := nativexml.Eval(c, q)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
	o := &oracle{figs: map[string]answer{}, enzymes: map[string]string{}, fig9: map[string]struct{}{}, docs: map[string]int{}}
	for db, docs := range c {
		o.docs[db] = len(docs)
	}
	figs := []query{fig9}
	if f.EMBL != "" {
		figs = append(figs, fig11)
		if f.SProt != "" {
			figs = append(figs, fig8)
		}
	}
	for _, q := range figs {
		rows, err := eval(q.text)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", q.kind, err)
		}
		o.figs[q.kind] = digest(rows)
		if q.kind == "fig9" {
			for _, r := range rows {
				o.fig9[r[0]] = struct{}{}
			}
		}
	}
	rows, err := eval(allEnzymes)
	if err != nil {
		return nil, fmt.Errorf("oracle enzymes: %w", err)
	}
	for _, r := range rows {
		o.enzymes[r[0]] = r[1]
	}
	return o, nil
}

// check compares a decoded response with the expected answer.
func (o *oracle) check(q query, res *core.Result) error {
	if q.kind != "lookup" {
		want, ok := o.figs[q.kind]
		if !ok {
			return fmt.Errorf("%s: corpus lacks its databases", q.kind)
		}
		if got := digest(res.Rows); got != want {
			return fmt.Errorf("%s: got %d rows, digest %x; want %d rows, digest %x",
				q.kind, got.rows, got.sum[:4], want.rows, want.sum[:4])
		}
		return nil
	}
	desc, present := o.enzymes[q.id]
	switch {
	case !present && len(res.Rows) == 0:
		return nil
	case !present:
		return fmt.Errorf("lookup %s: got %d rows for an id the corpus lacks", q.id, len(res.Rows))
	case len(res.Rows) != 1 || len(res.Rows[0]) != 2 || res.Rows[0][0] != q.id || res.Rows[0][1] != desc:
		return fmt.Errorf("lookup %s: got %v, want [[%s %s]]", q.id, res.Rows, q.id, desc)
	}
	return nil
}

// checkEvolving judges a response read while the evolver's versions are
// being applied, when the exact version a reader saw is not known: every
// row must be a state some published version had (evolver.check), the
// untouched half of the corpus must read exactly as generated, and
// Fig. 9 must neither lose an untouched hit nor gain a foreign one.
func (o *oracle) checkEvolving(ev *evolver, q query, res *core.Result, seen map[string]int) error {
	switch q.kind {
	case "lookup":
		switch {
		case len(res.Rows) == 0 && ev.mayBeMissing(q.id):
			return nil
		case len(res.Rows) != 1 || len(res.Rows[0]) != 2 || res.Rows[0][0] != q.id:
			return fmt.Errorf("lookup %s: got %v", q.id, res.Rows)
		}
		return ev.check(q.id, res.Rows[0][1], seen)
	case "fig9":
		untouched := 0
		for _, r := range res.Rows {
			if len(r) != 2 {
				return fmt.Errorf("fig9: row %v", r)
			}
			if _, hit := o.fig9[r[0]]; !hit {
				return fmt.Errorf("fig9: foreign id %s", r[0])
			}
			if err := ev.check(r[0], r[1], seen); err != nil {
				return fmt.Errorf("fig9: %w", err)
			}
			if ev.stable[r[0]] {
				untouched++
			}
		}
		want := 0
		for id := range o.fig9 {
			if ev.stable[id] {
				want++
			}
		}
		if untouched != want {
			return fmt.Errorf("fig9: %d untouched hits, want %d", untouched, want)
		}
		return nil
	}
	return fmt.Errorf("%s is not checked under updates", q.kind)
}
