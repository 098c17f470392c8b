package xomatiq_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"xomatiq/internal/benchutil"
	"xomatiq/internal/bio"
	"xomatiq/internal/srs"
)

// TestSRSAgreesWithXomatiQ builds the SRS comparison setup of paper §4:
// 1000 ENZYME entries indexed by an SRS-style system on the pre-declared
// fields id and cofactor, and the same flat file harnessed into XomatiQ.
// On the one query both systems can answer, an exact field lookup, they
// must return the same entries.
func TestSRSAgreesWithXomatiQ(t *testing.T) {
	f, err := benchutil.BuildFlats(1000, 0, 0, benchOpts)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := bio.ParseEnzyme(strings.NewReader(f.Enzyme))
	if err != nil {
		t.Fatal(err)
	}
	sys := srs.New()
	anyEntries := make([]any, len(entries))
	for i, e := range entries {
		anyEntries[i] = e
	}
	sys.AddDatabank("enzyme", anyEntries, []srs.FieldIndex{
		{Name: "id", Extract: func(e any) []string { return []string{e.(*bio.EnzymeEntry).ID} }},
		{Name: "cofactor", Extract: func(e any) []string { return e.(*bio.EnzymeEntry).Cofactors }},
	}, nil)
	hits, err := sys.Lookup("enzyme", "cofactor", "Copper")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, h := range hits {
		want[h.(*bio.EnzymeEntry).ID] = true
	}
	if len(want) == 0 {
		t.Fatal("SRS lookup found no Copper entries; the corpus no longer exercises the comparison")
	}

	eng, err := benchutil.Warehouse(t.TempDir(), f, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.Query(`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE $a//cofactor = "Copper"
RETURN $a//enzyme_id`)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, row := range res.Rows {
		got[row[0]] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("XomatiQ returned %d ids, SRS %d:\nXomatiQ: %v\nSRS:     %v", len(got), len(want), sortedKeys(got), sortedKeys(want))
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
