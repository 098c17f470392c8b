package xmldoc

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

const sampleEnzyme = `<?xml version="1.0" encoding="UTF-8"?>
<hlx_enzyme>
  <db_entry>
    <enzyme_id>1.14.17.3</enzyme_id>
    <enzyme_description>Peptidylglycine monooxygenase.</enzyme_description>
    <alternate_name_list>
      <alternate_name>Peptidyl alpha-amidating enzyme</alternate_name>
      <alternate_name>Peptidylglycine 2-hydroxylase</alternate_name>
    </alternate_name_list>
    <cofactor_list><cofactor>Copper</cofactor></cofactor_list>
    <prosite_reference prosite_accession_number="PDOC00080"/>
    <swissprot_reference_list>
      <reference name="AMD_BOVIN" swissprot_accession_number="P10731"/>
      <reference name="AMD_HUMAN" swissprot_accession_number="P19021"/>
    </swissprot_reference_list>
    <disease_list/>
  </db_entry>
</hlx_enzyme>`

func TestParseSample(t *testing.T) {
	doc, err := Parse(sampleEnzyme, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Name != "hlx_enzyme" {
		t.Errorf("root = %q", doc.Root.Name)
	}
	entry := doc.Root.FirstChild("db_entry")
	if entry == nil {
		t.Fatal("no db_entry")
	}
	if got := entry.FirstChild("enzyme_id").Text(); got != "1.14.17.3" {
		t.Errorf("enzyme_id = %q", got)
	}
	alts := entry.FirstChild("alternate_name_list").ChildElements("alternate_name")
	if len(alts) != 2 || alts[1].Text() != "Peptidylglycine 2-hydroxylase" {
		t.Errorf("alternate names = %v", alts)
	}
	pr := entry.FirstChild("prosite_reference")
	if v, ok := pr.Attr("prosite_accession_number"); !ok || v != "PDOC00080" {
		t.Errorf("prosite attr = %q %v", v, ok)
	}
	refs := entry.FirstChild("swissprot_reference_list").ChildElements("reference")
	if len(refs) != 2 {
		t.Fatalf("refs = %d", len(refs))
	}
	if v, _ := refs[0].Attr("swissprot_accession_number"); v != "P10731" {
		t.Errorf("first ref acc = %q", v)
	}
	if dl := entry.FirstChild("disease_list"); dl == nil || len(dl.Children) != 0 {
		t.Error("empty element mishandled")
	}
}

func TestParseEntitiesAndCDATA(t *testing.T) {
	doc, err := Parse(`<r a="x &amp; &quot;y&quot;">A &lt;B&gt; &#65;&#x42; <![CDATA[<raw&>]]></r>`, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := doc.Root.Attr("a"); v != `x & "y"` {
		t.Errorf("attr = %q", v)
	}
	if got := doc.Root.Text(); got != "A <B> AB <raw&>" {
		t.Errorf("text = %q", got)
	}
}

func TestParseMixedContent(t *testing.T) {
	doc, err := Parse(`<p>before <b>bold</b> after</p>`, ParseOptions{KeepSpace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Root.Children) != 3 {
		t.Fatalf("children = %d", len(doc.Root.Children))
	}
	if doc.Root.Text() != "before bold after" {
		t.Errorf("text = %q", doc.Root.Text())
	}
}

func TestParseStripSpace(t *testing.T) {
	doc, err := Parse("<a>\n  <b>x</b>\n</a>", ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Root.Children) != 1 {
		t.Errorf("whitespace text kept: %d children", len(doc.Root.Children))
	}
}

func TestParseCommentsAndPI(t *testing.T) {
	doc, err := Parse(`<?xml version="1.0"?><!-- header --><!DOCTYPE r [<!ELEMENT r ANY>]><r><!-- inside --><?pi data?>x</r><!-- trailer -->`, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Text() != "x" {
		t.Errorf("text = %q", doc.Root.Text())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`<a>`,
		`<a></b>`,
		`<a b></a>`,
		`<a b="x></a>`,
		`<a>&unknown;</a>`,
		`<a>&#xZZ;</a>`,
		`<a/><b/>`,
		`<a><![CDATA[x</a>`,
		`text only`,
	}
	for _, src := range bad {
		if _, err := Parse(src, ParseOptions{}); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	doc := MustParse(sampleEnzyme)
	out := doc.Serialize(SerializeOptions{Indent: "  "})
	doc2, err := Parse(out, ParseOptions{})
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	if !Equal(doc.Root, doc2.Root) {
		t.Error("indent round trip changed the tree")
	}
	compact := doc.Serialize(SerializeOptions{NoDecl: true})
	doc3, err := Parse(compact, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(doc.Root, doc3.Root) {
		t.Error("compact round trip changed the tree")
	}
}

func TestEscaping(t *testing.T) {
	root := NewElement("r")
	root.SetAttr("a", `<>&"'`)
	root.AddText(`5 < 6 && "quoted"`)
	doc := &Document{Root: root}
	out := doc.Serialize(SerializeOptions{NoDecl: true})
	doc2, err := Parse(out, ParseOptions{KeepSpace: true})
	if err != nil {
		t.Fatalf("%v in %q", err, out)
	}
	if v, _ := doc2.Root.Attr("a"); v != `<>&"'` {
		t.Errorf("attr after round trip = %q", v)
	}
	if doc2.Root.Text() != `5 < 6 && "quoted"` {
		t.Errorf("text after round trip = %q", doc2.Root.Text())
	}
}

// TestEscapeConcurrent serialises from several goroutines at once: the
// escapers are shared by every caller in the process.
func TestEscapeConcurrent(t *testing.T) {
	root := NewElement("r")
	root.SetAttr("a", `<>&"'`)
	root.AddText(`5 < 6 && "quoted"`)
	doc := &Document{Root: root}
	want := doc.Serialize(SerializeOptions{NoDecl: true})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := doc.Serialize(SerializeOptions{NoDecl: true}); got != want {
					t.Errorf("serialised %q, want %q", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// randomTree builds a random document for property tests.
func randomTree(rng *rand.Rand, depth int) *Node {
	names := []string{"a", "b", "c", "entry", "ref"}
	n := NewElement(names[rng.Intn(len(names))])
	if rng.Intn(2) == 0 {
		n.SetAttr("k", randText(rng))
	}
	kids := rng.Intn(4)
	for i := 0; i < kids; i++ {
		if depth <= 0 || rng.Intn(2) == 0 {
			txt := randText(rng)
			if strings.TrimSpace(txt) != "" {
				n.AddText(txt)
			}
		} else {
			n.AddChild(randomTree(rng, depth-1))
		}
	}
	return n
}

func randText(rng *rand.Rand) string {
	chars := []rune(`abc <>&"'123 é`)
	n := rng.Intn(12)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(chars[rng.Intn(len(chars))])
	}
	return sb.String()
}

func TestQuickSerializeParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := &Document{Root: randomTree(rng, 4)}
		out := doc.Serialize(SerializeOptions{NoDecl: true})
		doc2, err := Parse(out, ParseOptions{KeepSpace: true})
		if err != nil {
			return false
		}
		// Adjacent text nodes merge in parsing; compare by normalised
		// text and structure of elements.
		return normEqual(doc.Root, doc2.Root)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// normEqual compares trees treating adjacent text children as merged.
func normEqual(a, b *Node) bool {
	if a.Kind != b.Kind || a.Name != b.Name {
		return false
	}
	if len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i].Name != b.Attrs[i].Name || a.Attrs[i].Data != b.Attrs[i].Data {
			return false
		}
	}
	ae, be := a.ChildElements(""), b.ChildElements("")
	if len(ae) != len(be) {
		return false
	}
	for i := range ae {
		if !normEqual(ae[i], be[i]) {
			return false
		}
	}
	return a.Text() == b.Text()
}

func TestDeweyOrderAndAncestry(t *testing.T) {
	doc := MustParse(sampleEnzyme)
	labels := doc.AssignDeweys()
	// Collect document-order nodes and verify Dewey order matches.
	var order []*Node
	doc.Root.Descendants(func(n *Node) bool {
		order = append(order, n)
		return true
	})
	for i := 1; i < len(order); i++ {
		if labels[order[i-1]].Compare(labels[order[i]]) >= 0 {
			t.Fatalf("dewey order broken at %d: %v >= %v", i, labels[order[i-1]], labels[order[i]])
		}
	}
	// Ancestry: an ancestor's label is a proper prefix of its
	// descendants' labels.
	entry := doc.Root.FirstChild("db_entry")
	id := entry.FirstChild("enzyme_id")
	isPrefix := func(a, d Dewey) bool {
		return len(a) < len(d) && a.Compare(d[:len(a)]) == 0
	}
	if !isPrefix(labels[doc.Root], labels[id]) || !isPrefix(labels[entry], labels[id]) {
		t.Error("ancestor labels broken")
	}
	if isPrefix(labels[id], labels[entry]) || isPrefix(labels[id], labels[id]) {
		t.Error("a descendant or the node itself labelled as an ancestor")
	}
}

func TestPathAndCounts(t *testing.T) {
	doc := MustParse(sampleEnzyme)
	entry := doc.Root.FirstChild("db_entry")
	id := entry.FirstChild("enzyme_id")
	if got := id.Path(); got != "/hlx_enzyme/db_entry/enzyme_id" {
		t.Errorf("Path = %q", got)
	}
	pr := entry.FirstChild("prosite_reference")
	if got := pr.Attrs[0].Path(); got != "/hlx_enzyme/db_entry/prosite_reference/@prosite_accession_number" {
		t.Errorf("attr path = %q", got)
	}
	if got := id.Children[0].Path(); got != "/hlx_enzyme/db_entry/enzyme_id" {
		t.Errorf("text path = %q", got)
	}
	el, at, tx := CountNodes(doc.Root)
	if el != 14 || at != 5 || tx != 5 {
		t.Errorf("counts = %d elements, %d attrs, %d texts", el, at, tx)
	}
	names := ElementNames(doc.Root)
	if len(names) != 12 {
		t.Errorf("distinct names = %d: %v", len(names), names)
	}
}

func TestDescendantElements(t *testing.T) {
	doc := MustParse(sampleEnzyme)
	refs := doc.Root.DescendantElements("reference")
	if len(refs) != 2 {
		t.Errorf("references = %d", len(refs))
	}
	all := doc.Root.DescendantElements("")
	if len(all) != 13 { // 14 elements minus the root itself
		t.Errorf("all descendants = %d", len(all))
	}
	// Early stop in Descendants.
	count := 0
	doc.Root.Descendants(func(*Node) bool { count++; return count < 3 })
	if count != 3 {
		t.Errorf("early stop visited %d", count)
	}
}
