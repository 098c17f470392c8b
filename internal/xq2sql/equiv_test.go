package xq2sql

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"xomatiq/internal/nativexml"
	"xomatiq/internal/sql"
	"xomatiq/internal/xmldoc"
	"xomatiq/internal/xq"
)

// TestRandomQueryEquivalence generates random queries over a random
// document corpus and checks that the XQ2SQL translation (with and
// without the keyword index) and the native evaluator produce identical
// results, and that the translation returns its SQL's rows without
// DISTINCT, deduplicated in first-occurrence order. Queries outside the translatable subset are skipped (the
// engine layer falls back for those).
func TestRandomQueryEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("randomised equivalence suite")
	}
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fx := newFixture(t)
			docs := randomCorpus(rng, 20)
			fx.loadDocs(t, "rnd", []string{"/root/seq"}, docs)
			// Odd seeds run with optimizer statistics: plans may change
			// (index choices, join order), results must not.
			if seed%2 == 1 {
				if err := fx.store.DB.Analyze(); err != nil {
					t.Fatal(err)
				}
			}

			tried, ran := 0, 0
			for q := 0; q < 60; q++ {
				src := randomQuery(rng)
				query, err := xq.Parse(src)
				if err != nil {
					t.Fatalf("generated query does not parse: %v\n%s", err, src)
				}
				tried++
				tr, err := Translate(fx.store, query, Options{UseKeywordIndex: rng.Intn(2) == 0})
				if errors.Is(err, ErrUnsupported) {
					continue
				}
				if err != nil {
					t.Fatalf("translate: %v\n%s", err, src)
				}
				ran++
				res, err := fx.store.DB.Query(tr.SQL)
				if err != nil {
					t.Fatalf("execute: %v\nquery: %s\nSQL: %s", err, src, tr.SQL)
				}
				var sqlRows []string
				for _, row := range res.Rows {
					parts := make([]string, len(row))
					for i, v := range row {
						parts[i] = v.String()
					}
					sqlRows = append(sqlRows, strings.Join(parts, "|"))
				}
				// Hash-join build workers must not perturb results: the
				// same statement under 1 and 4 workers returns
				// byte-identical rows in identical order.
				stmt, err := sql.Parse(tr.SQL)
				if err != nil {
					t.Fatalf("reparse: %v\nSQL: %s", err, tr.SQL)
				}
				sel, ok := stmt.(*sql.Select)
				if !ok {
					t.Fatalf("translated SQL is not a SELECT: %s", tr.SQL)
				}
				render := func(workers int) string {
					r, err := fx.store.DB.QueryStmtOptsContext(context.Background(), sel, sql.ExecOpts{Workers: workers})
					if err != nil {
						t.Fatalf("execute (workers=%d): %v\nSQL: %s", workers, err, tr.SQL)
					}
					var rows []string
					for _, row := range r.Rows {
						parts := make([]string, len(row))
						for i, v := range row {
							parts[i] = v.String()
						}
						rows = append(rows, strings.Join(parts, "|"))
					}
					return strings.Join(rows, ";")
				}
				if w1, w4 := render(1), render(4); w1 != w4 {
					t.Fatalf("worker count changed results\nquery:\n%s\nSQL: %s\nworkers=1: %s\nworkers=4: %s",
						src, tr.SQL, w1, w4)
				}
				// Row order: the translation returns the rows of its SQL
				// without DISTINCT, first occurrences kept in order, so no
				// semi join may change which copy of a row comes first.
				plain := *sel
				plain.Distinct = false
				all, err := fx.store.DB.QueryStmtOptsContext(context.Background(), &plain, sql.ExecOpts{})
				if err != nil {
					t.Fatalf("execute without DISTINCT: %v\nSQL: %s", err, tr.SQL)
				}
				var deduped []string
				seen := map[string]bool{}
				for _, row := range all.Rows {
					parts := make([]string, len(row))
					for i, v := range row {
						parts[i] = v.String()
					}
					if r := strings.Join(parts, "|"); !seen[r] {
						seen[r] = true
						deduped = append(deduped, r)
					}
				}
				if got, want := strings.Join(sqlRows, ";"), strings.Join(deduped, ";"); got != want {
					t.Fatalf("DISTINCT changed row order\nquery:\n%s\nSQL: %s\ntranslated: %s\nwithout DISTINCT, deduplicated: %s",
						src, tr.SQL, got, want)
				}
				nres, err := nativexml.Eval(fx.corpus, query)
				if err != nil {
					t.Fatalf("native: %v\n%s", err, src)
				}
				var natRows []string
				for _, row := range nres.Rows {
					natRows = append(natRows, strings.Join(row, "|"))
				}
				sort.Strings(sqlRows)
				sort.Strings(natRows)
				if strings.Join(sqlRows, ";") != strings.Join(natRows, ";") {
					t.Fatalf("engines disagree\nquery:\n%s\nSQL: %s\nsql rows:    %v\nnative rows: %v",
						src, tr.SQL, sqlRows, natRows)
				}
			}
			if ran == 0 {
				t.Fatalf("no generated query was translatable (%d tried)", tried)
			}
		})
	}
}

// The random corpus uses a small fixed vocabulary so that queries
// sometimes hit and sometimes miss. Sequence segments and motifs are
// disjoint from the annotation vocabulary: residues must never collide
// with contains() keywords, since the warehouse excludes sequence text
// from values_str and the keyword index while the native evaluator
// walks raw document text.
var (
	rElems   = []string{"entry", "name", "ref", "score", "tag"}
	rAttrs   = []string{"id", "kind"}
	rTexts   = []string{"alpha", "beta", "gamma", "copper zinc", "42", "7", "900"}
	rAttrVs  = []string{"a1", "a2", "ec"}
	rSeqSegs = []string{"acgt", "ggca", "ttaa", "cgcg", "tgca"}
	rMotifs  = []string{"acgt", "ggca", "cgcg", "acgtacgt", "ttaattaa", "gggg"}
)

func randomCorpus(rng *rand.Rand, n int) []*xmldoc.Document {
	docs := make([]*xmldoc.Document, n)
	for i := range docs {
		root := xmldoc.NewElement("root")
		var build func(parent *xmldoc.Node, depth int)
		build = func(parent *xmldoc.Node, depth int) {
			kids := 1 + rng.Intn(3)
			for k := 0; k < kids; k++ {
				el := xmldoc.NewElement(rElems[rng.Intn(len(rElems))])
				if rng.Intn(2) == 0 {
					el.SetAttr(rAttrs[rng.Intn(len(rAttrs))], rAttrVs[rng.Intn(len(rAttrVs))])
				}
				if depth > 0 && rng.Intn(3) == 0 {
					build(el, depth-1)
				} else {
					el.AddText(rTexts[rng.Intn(len(rTexts))])
				}
				parent.AddChild(el)
			}
		}
		build(root, 2)
		// Root-level sequence data: routed to seq_data by the registered
		// "/root/seq" path, so seqcontains() has residues to search.
		// Occasional upper-casing exercises case-insensitive matching on
		// both sides.
		if rng.Intn(4) > 0 {
			seq := xmldoc.NewElement("seq")
			var b strings.Builder
			for s, n := 0, 1+rng.Intn(5); s < n; s++ {
				b.WriteString(rSeqSegs[rng.Intn(len(rSeqSegs))])
			}
			text := b.String()
			if rng.Intn(4) == 0 {
				text = strings.ToUpper(text)
			}
			seq.AddText(text)
			root.AddChild(seq)
		}
		docs[i] = &xmldoc.Document{Name: fmt.Sprintf("doc%03d", i), Root: root}
	}
	return docs
}

// randomQuery builds a query from a small grammar: one or two FOR
// bindings over the root, an optional LET alias, conditions from
// comparisons, contains, seqcontains, same-path disjunctions and order
// ops (occasionally negated), final-step predicates on paths, and one
// or two return items. Shapes outside the translatable subset (NOT,
// predicate placements the twig join cannot express) are generated on
// purpose: they must skip cleanly via ErrUnsupported, never mistranslate.
func randomQuery(rng *rand.Rand) string {
	var sb strings.Builder
	nVars := 1
	if rng.Intn(4) == 0 {
		nVars = 2
		if rng.Intn(3) == 0 {
			nVars = 3
		}
	}
	twoVars := nVars >= 2
	sb.WriteString(`FOR $a IN document("rnd")/root`)
	if twoVars {
		sb.WriteString(`, $b IN document("rnd")/root`)
	}
	if nVars >= 3 {
		sb.WriteString(`, $c IN document("rnd")/root`)
	}
	// Optional LET alias over a subpath of $a. Both engines resolve LETs
	// by substitution, so these exercise ResolveLets round-tripping.
	hasLet := rng.Intn(4) == 0
	if hasLet {
		sb.WriteString("\nLET $l := $a")
		for i, n := 0, 1+rng.Intn(2); i < n; i++ {
			sep := "/"
			if rng.Intn(4) == 0 {
				sep = "//"
			}
			sb.WriteString(sep + rElems[rng.Intn(len(rElems))])
		}
	}
	pickVar := func() string {
		if hasLet && rng.Intn(4) == 0 {
			return "l"
		}
		if nVars >= 3 && rng.Intn(3) == 0 {
			return "c"
		}
		if twoVars && rng.Intn(2) == 0 {
			return "b"
		}
		return "a"
	}
	randPred := func() string {
		switch rng.Intn(3) {
		case 0:
			return fmt.Sprintf(`[@%s = %q]`, rAttrs[rng.Intn(len(rAttrs))], rAttrVs[rng.Intn(len(rAttrVs))])
		case 1:
			return fmt.Sprintf(`[%s = %q]`, rElems[rng.Intn(len(rElems))], rTexts[rng.Intn(len(rTexts))])
		default:
			ops := []string{"=", "!=", "<", ">"}
			return fmt.Sprintf(`[%s %s %d]`, rElems[rng.Intn(len(rElems))], ops[rng.Intn(len(ops))], 5+rng.Intn(100))
		}
	}
	randPath := func(v string) string {
		p := "$" + v
		steps := 1 + rng.Intn(2)
		for i := 0; i < steps; i++ {
			if rng.Intn(2) == 0 {
				p += "//"
			} else {
				p += "/"
			}
			p += rElems[rng.Intn(len(rElems))]
		}
		if rng.Intn(4) == 0 {
			p += "/@" + rAttrs[rng.Intn(len(rAttrs))]
		} else if rng.Intn(5) == 0 {
			p += randPred()
		}
		return p
	}
	cond := func(v string) string {
		switch rng.Intn(7) {
		case 6:
			// Range-predicate pair on one path: the planner may consume
			// both bounds as an index range; XQuery's existential
			// semantics still give each comparison its own value witness.
			p := randPath(v)
			lo := 5 + rng.Intn(50)
			return fmt.Sprintf(`(%s >= %d AND %s < %d)`, p, lo, p, lo+rng.Intn(60))
		case 0:
			kw := strings.Fields(rTexts[rng.Intn(len(rTexts))])[0]
			if rng.Intn(2) == 0 {
				return fmt.Sprintf(`contains($%s, %q, any)`, v, kw)
			}
			return fmt.Sprintf(`contains(%s, %q)`, randPath(v), kw)
		case 1:
			ops := []string{"=", "!=", "<", "<=", ">", ">="}
			return fmt.Sprintf(`%s %s %d`, randPath(v), ops[rng.Intn(len(ops))], 5+rng.Intn(100))
		case 2:
			return fmt.Sprintf(`%s = %q`, randPath(v), rTexts[rng.Intn(len(rTexts))])
		case 3:
			// Motif search; the target resolves to sequence residues
			// only via the registered /root/seq path, so off-path
			// targets must come back empty from both engines.
			tgt := "$" + v
			switch rng.Intn(3) {
			case 0:
			case 1:
				tgt += "/seq"
			default:
				tgt += "//seq"
			}
			return fmt.Sprintf(`seqcontains(%s, %q)`, tgt, rMotifs[rng.Intn(len(rMotifs))])
		case 4:
			// Same-path disjunction (the translatable OR shape),
			// parenthesized so AND chaining keeps the intended tree.
			p := randPath(v)
			branch := func() string {
				if rng.Intn(2) == 0 {
					kw := strings.Fields(rTexts[rng.Intn(len(rTexts))])[0]
					return fmt.Sprintf(`contains(%s, %q)`, p, kw)
				}
				return fmt.Sprintf(`%s = %q`, p, rTexts[rng.Intn(len(rTexts))])
			}
			return "(" + branch() + " OR " + branch() + ")"
		default:
			op := "BEFORE"
			if rng.Intn(2) == 0 {
				op = "AFTER"
			}
			return fmt.Sprintf(`%s %s %s`, randPath(v), op, randPath(v))
		}
	}
	nConds := rng.Intn(3)
	if nConds > 0 {
		sb.WriteString("\nWHERE ")
		for i := 0; i < nConds; i++ {
			if i > 0 {
				sb.WriteString(" AND ")
			}
			if rng.Intn(8) == 0 {
				// Untranslatable on purpose: the engine layer falls back
				// to the native evaluator for NOT.
				sb.WriteString("NOT ")
			}
			sb.WriteString(cond(pickVar()))
		}
		// Occasionally a cross-variable equality (join); with a third
		// variable, extend it into a multi-join chain a-b-c so the
		// greedy join-order pass has something to reorder.
		if twoVars && rng.Intn(2) == 0 {
			if nConds > 0 {
				sb.WriteString(" AND ")
			}
			sb.WriteString(randPath("a") + " = " + randPath("b"))
			if nVars >= 3 {
				sb.WriteString(" AND " + randPath("b") + " = " + randPath("c"))
			}
		}
	}
	sb.WriteString("\nRETURN ")
	sb.WriteString(randPath("a"))
	if rng.Intn(2) == 0 {
		sb.WriteString(", " + randPath(pickVar()))
	}
	return sb.String()
}

// TestIntervalBoundEquivalence binds elements that repeat in every
// document, so both ends of the descendant interval
// (node_id, last_desc] decide rows: without the lower bound a binding
// also sees the values of the siblings before it, without the upper
// bound those after it. Bindings over the document root, which the
// random suite uses, cannot tell.
func TestIntervalBoundEquivalence(t *testing.T) {
	fx := newFixture(t)
	loadPaperCorpus(t, fx, 12, 0, 0)
	// A reference that is not the first of its list, so that references
	// on both sides of it share its document.
	var acc string
	for _, d := range fx.corpus["hlx_enzyme.DEFAULT"] {
		refs := d.Root.FirstChild("db_entry").FirstChild("swissprot_reference_list").ChildElements("reference")
		if len(refs) >= 3 {
			acc, _ = refs[1].Attr("swissprot_accession_number")
			break
		}
	}
	if acc == "" {
		t.Fatal("no enzyme entry with three Swiss-Prot references")
	}
	// Sibling elements in both orders, so BEFORE and AFTER hold for some
	// bindings of a document and not for their neighbours.
	var docs []*xmldoc.Document
	for i, src := range []string{
		`<r><e><v>1</v><k>a</k></e><e><k>b</k><v>2</v></e><e><v>3</v><k>c</k></e></r>`,
		`<r><e><k>d</k><v>4</v></e><e><v>5</v><k>e</k></e><e><k>f</k><v>6</v></e></r>`,
	} {
		docs = append(docs, named(xmldoc.MustParse(src), fmt.Sprintf("d%d", i)))
	}
	fx.loadDocs(t, "db", nil, docs)

	for _, c := range []struct {
		query string
		want  string
	}{
		{fmt.Sprintf(`FOR $r IN document("hlx_enzyme.DEFAULT")//reference
WHERE $r/@swissprot_accession_number = %q
RETURN $r/@name, $r/@swissprot_accession_number`, acc), ""},
		{`FOR $r IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry/swissprot_reference_list/reference
WHERE $r/@swissprot_accession_number >= "P5"
RETURN $r/@swissprot_accession_number`, ""},
		{`FOR $e IN document("db")//e WHERE $e/k = "b" RETURN $e/v`, "2"},
		{`FOR $e IN document("db")//e WHERE $e/v >= 3 AND $e/v < 5 RETURN $e/k`, "c;d"},
		{`FOR $e IN document("db")//e WHERE $e/k BEFORE $e/v RETURN $e/k, $e/v`, "b|2;d|4;f|6"},
		{`FOR $e IN document("db")/r/e WHERE $e/k AFTER $e/v RETURN $e/k`, "a;c;e"},
	} {
		for _, useIndex := range []bool{false, true} {
			rows := assertAgree(t, fx, c.query, useIndex, true)
			if c.want != "" && strings.Join(rows, ";") != c.want {
				t.Errorf("%s\n= %v, want %s", c.query, rows, c.want)
			}
		}
	}
}
