package inverted

import (
	"reflect"
	"slices"
	"testing"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"Ketone", []string{"ketone"}},
		{"cell division cycle protein cdc6", []string{"cell", "division", "cycle", "protein", "cdc6"}},
		{"Peptidylglycine + ascorbate + O(2)", []string{"peptidylglycine", "ascorbate", "o", "2"}},
		{"EC 1.14.17.3", []string{"ec", "1", "14", "17", "3", "1.14.17.3"}},
		{"cdc6-like protein", []string{"cdc6", "like", "cdc6-like", "protein"}},
		{"...---...", nil},
		{"AMD_BOVIN", []string{"amd", "bovin"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAddTextLookup(t *testing.T) {
	ix := New()
	ix.AddText(1, 10, "Peptidylglycine monooxygenase")
	ix.AddText(1, 11, "the enzyme also catalyzes the dismutation") // "the" once per node
	ix.AddText(2, 20, "monooxygenase activity in copper enzymes")

	got := ix.Lookup("monooxygenase")
	want := []Posting{{Doc: 1, Node: 10}, {Doc: 2, Node: 20}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Lookup = %v, want %v", got, want)
	}
	// Case-insensitive, trimmed lookup.
	if len(ix.Lookup("  MONOOXYGENASE ")) != 2 {
		t.Error("lookup should normalise case and space")
	}
	if ix.Lookup("absent") != nil {
		t.Error("absent keyword should return nil")
	}
}

func TestRepeatedTokensIndexedOncePerNode(t *testing.T) {
	ix := New()
	ix.AddText(1, 10, "copper copper copper")
	if got := len(ix.Lookup("copper")); got != 1 {
		t.Errorf("repeated token postings = %d, want 1", got)
	}
	ix.AddText(1, 11, "copper")
	if got := len(ix.Lookup("copper")); got != 2 {
		t.Errorf("per-node postings = %d, want 2", got)
	}
}

func TestLookupDocs(t *testing.T) {
	ix := New()
	ix.AddText(3, 1, "cdc6")
	ix.AddText(1, 1, "cdc6")
	ix.AddText(3, 2, "cdc6 related")
	docs := ix.LookupDocs("cdc6")
	if !reflect.DeepEqual(docs, []uint32{1, 3}) {
		t.Errorf("LookupDocs = %v", docs)
	}
}

func TestDeleteDoc(t *testing.T) {
	ix := New()
	ix.AddText(1, 1, "ketone bodies")
	ix.AddText(2, 1, "ketone reductase")
	before := ix.Len()
	ix.DeleteDoc(1)
	if got := ix.LookupDocs("ketone"); !reflect.DeepEqual(got, []uint32{2}) {
		t.Errorf("after DeleteDoc LookupDocs = %v", got)
	}
	if ix.Lookup("bodies") != nil {
		t.Error("doc 1 tokens should be gone")
	}
	if ix.Len() >= before {
		t.Error("Len did not shrink")
	}
	// Deleting an unknown doc is a no-op.
	ix.DeleteDoc(99)
	if len(ix.Lookup("reductase")) != 1 {
		t.Error("unrelated postings disturbed")
	}
}

func TestStats(t *testing.T) {
	ix := New()
	ix.AddText(1, 1, "alpha beta alpha")
	if ix.DistinctTokens() != 2 || ix.Len() != 2 {
		t.Errorf("DistinctTokens=%d Len=%d", ix.DistinctTokens(), ix.Len())
	}
}

// TestCloneLeavesOriginal: adding to and deleting from a clone changes
// nothing the original reads, although the two share posting arrays.
func TestCloneLeavesOriginal(t *testing.T) {
	ix := New()
	ix.AddText(1, 1, "copper zinc")
	ix.AddText(2, 1, "copper")
	c := ix.Clone()
	c.AddText(3, 1, "copper iron")
	c.DeleteDoc(1)
	if got := ix.LookupDocs("copper"); !slices.Equal(got, []uint32{1, 2}) {
		t.Errorf("original copper docs = %v, want [1 2]", got)
	}
	if got := ix.LookupDocs("iron"); got != nil {
		t.Errorf("original iron docs = %v, want none", got)
	}
	if ix.Len() != 3 || ix.DistinctTokens() != 2 {
		t.Errorf("original has %d postings of %d tokens, want 3 of 2", ix.Len(), ix.DistinctTokens())
	}
	if got := c.LookupDocs("copper"); !slices.Equal(got, []uint32{2, 3}) {
		t.Errorf("clone copper docs = %v, want [2 3]", got)
	}
}
