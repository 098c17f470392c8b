package shred

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"xomatiq/internal/bio"
	"xomatiq/internal/hounds"
	"xomatiq/internal/sql"
	"xomatiq/internal/storage/heap"
	"xomatiq/internal/xmldoc"
)

// FuzzShredRoundTrip pins the paper's losslessness requirement on the
// shipping shredder: any document xmldoc.Parse accepts, shredded and
// inserted the way the ingest pipeline does it and rebuilt from its
// tuples, serialises byte-identically, every node's interval
// (node_id, last_desc] holds exactly its descendants, and the digest the
// load stored is the digest of the rebuild (what Digests computes for a
// document stored without one). The database has sequence paths, so
// text under them takes the seq_data route.
func FuzzShredRoundTrip(f *testing.F) {
	compact := xmldoc.SerializeOptions{NoDecl: true}
	f.Add(hounds.EnzymeEntryToXML(bio.SampleEnzymeEntry()).Serialize(compact))
	opts := bio.GenOptions{Seed: 3}
	f.Add(hounds.SProtEntryToXML(bio.GenSProt(1, opts)[0]).Serialize(compact))
	f.Add(hounds.EMBLEntryToXML(bio.GenEMBL(1, "inv", nil, opts)[0]).Serialize(compact))
	for _, seed := range []string{
		`<r><e/><seq/></r>`,                                 // empty elements
		`<r>lead<b>bold</b>tail<i/>end</r>`,                 // mixed content
		`<r><w>   </w><p> padded </p></r>`,                  // whitespace-only and padded text
		`<r a="&lt;&amp;&quot;">&lt;tag&gt; &amp; more</r>`, // escaped entities
		`<r a=""><e b="" c="x"/></r>`,                       // empty attributes
		`<r><seq>12345</seq><n>42</n><f> 2.5e3 </f></r>`,    // numeric text, on and off a sequence path
		`<r><seq>acgt<x/>ttga</seq><![CDATA[<raw>]]></r>`,   // sequence text split by an element; CDATA
	} {
		f.Add(seed)
	}
	// Commits skip the fsync: the fuzzer checks content, not durability.
	db, err := sql.OpenAsync(filepath.Join(f.TempDir(), "fz.db"), sql.Options{PoolPages: 1024})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { db.Close() })
	s, err := Open(db)
	if err != nil {
		f.Fatal(err)
	}
	seqPaths := append([]string{"/r/seq"}, hounds.EMBLTransformer{}.SequencePaths()...)
	if err := s.RegisterDB("fz", seqPaths, ""); err != nil {
		f.Fatal(err)
	}
	n := 0
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := xmldoc.Parse(src, xmldoc.ParseOptions{})
		if err != nil {
			return
		}
		n++
		doc.Name = fmt.Sprintf("doc%d", n)
		want := doc.Serialize(compact)
		ids, err := shredDocs(s, "fz", doc)
		if err != nil {
			if errors.Is(err, heap.ErrTooLarge) {
				// A value past the heap's one-page record limit is the
				// storage engine's documented bound, not a lost node.
				t.Skip(err)
			}
			t.Fatalf("load %q: %v", src, err)
		}
		got, err := s.ReconstructByName("fz", doc.Name)
		if err != nil {
			t.Fatalf("reconstruct %q: %v", src, err)
		}
		if out := got.Serialize(compact); out != want {
			t.Fatalf("round trip differs\nwant %s\ngot  %s", want, out)
		}
		checkIntervals(t, db, ids[0], doc)
		rows, err := db.Query(fmt.Sprintf(`SELECT digest FROM digests WHERE db = 'fz' AND doc_id = %d`, ids[0]))
		if err != nil {
			t.Fatal(err)
		}
		if digest := got.Digest(); len(rows.Rows) != 1 || !bytes.Equal(rows.Rows[0][0].Bytes(), digest[:]) {
			t.Fatalf("stored digest %v, want the rebuild's %x", rows.Rows, digest)
		}
		if err := s.DeleteDocument("fz", doc.Name); err != nil {
			t.Fatal(err)
		}
	})
}

// checkIntervals checks the structural encoding of one stored document
// against its tree: in node_id order the nodes rows are the tree's
// nodes in pre-order, attributes first, and for every node the rows with
// node_id in (node_id, last_desc] are exactly its descendants.
func checkIntervals(t *testing.T, db *sql.DB, docID int, doc *xmldoc.Document) {
	t.Helper()
	var pre []*xmldoc.Node
	var end []int // end[i]: pre-order index of the last node under pre[i]
	var walk func(n *xmldoc.Node)
	walk = func(n *xmldoc.Node) {
		i := len(pre)
		pre = append(pre, n)
		end = append(end, 0)
		for _, a := range n.Attrs {
			walk(a)
		}
		for _, c := range n.Children {
			walk(c)
		}
		end[i] = len(pre) - 1
	}
	walk(doc.Root)
	rows, err := db.Query(fmt.Sprintf(
		`SELECT node_id, last_desc, kind, name FROM nodes WHERE db = 'fz' AND doc_id = %d ORDER BY node_id`, docID))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != len(pre) {
		t.Fatalf("%d nodes rows for a %d-node tree", len(rows.Rows), len(pre))
	}
	kinds := map[xmldoc.NodeKind]int64{xmldoc.KindElement: kindElem, xmldoc.KindAttr: kindAttr, xmldoc.KindText: kindText}
	for i, r := range rows.Rows {
		if r[2].Int() != kinds[pre[i].Kind] || r[3].Text() != pre[i].Name {
			t.Fatalf("node_id %d is kind %d %q; pre-order node %d is kind %d %q",
				r[0].Int(), r[2].Int(), r[3].Text(), i, kinds[pre[i].Kind], pre[i].Name)
		}
		id, last := r[0].Int(), r[1].Int()
		for j, o := range rows.Rows {
			in := o[0].Int() > id && o[0].Int() <= last
			if desc := j > i && j <= end[i]; in != desc {
				t.Fatalf("node_id %d in (%d, %d] is %v; node %d under node %d in the tree is %v",
					o[0].Int(), id, last, in, j, i, desc)
			}
		}
	}
}
