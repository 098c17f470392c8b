package shred

import (
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
// tuples, serialises byte-identically. The database has sequence paths,
// so text under them takes the seq_data route.
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
	s, err := Open(db, true)
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
		if _, err := shredDocs(s, "fz", doc); err != nil {
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
		if err := s.DeleteDocument("fz", doc.Name); err != nil {
			t.Fatal(err)
		}
	})
}
