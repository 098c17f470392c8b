// Package srs implements an SRS-style comparator (paper §4): a
// structured-text retrieval system in the spirit of the Sequence
// Retrieval System and its Icarus scripting — flat-file entries indexed
// on a fixed set of pre-declared fields, queried by exact field lookups
// with optional cross-database link following.
//
// The deliberate limitations mirror the paper's critique: "Icarus is
// less expressive in querying XML data. Searches are only permitted on
// pre-defined indexed attributes whereas XomatiQ permits searches on
// attributes at any level, and joins may be performed as needed." On the
// queries both systems can answer, their answers must agree
// (TestSRSAgreesWithXomatiQ).
package srs

import (
	"fmt"
	"sort"
	"strings"
)

// FieldIndex declares one indexed field of a databank: a name and the
// extractor pulling its values from an entry.
type FieldIndex struct {
	Name    string
	Extract func(entry any) []string
}

// Databank is one indexed flat-file database.
type Databank struct {
	name    string
	fields  []string
	indexes map[string]map[string][]int // field -> value(lower) -> entry ordinals
	entries []any
	links   map[string]string // field -> target databank whose ids it references
}

// System is a set of databanks with typed links, queried by field lookup.
type System struct {
	banks map[string]*Databank
}

// New returns an empty system.
func New() *System { return &System{banks: map[string]*Databank{}} }

// AddDatabank indexes entries under the declared fields. Links map a
// local field to another databank keyed by its "id" field.
func (s *System) AddDatabank(name string, entries []any, fields []FieldIndex, links map[string]string) {
	b := &Databank{
		name:    name,
		indexes: map[string]map[string][]int{},
		entries: entries,
		links:   links,
	}
	for _, f := range fields {
		b.fields = append(b.fields, f.Name)
		ix := map[string][]int{}
		for i, e := range entries {
			seen := map[string]bool{}
			for _, v := range f.Extract(e) {
				key := strings.ToLower(strings.TrimSpace(v))
				if key != "" && !seen[key] {
					seen[key] = true
					ix[key] = append(ix[key], i)
				}
			}
		}
		b.indexes[f.Name] = ix
	}
	s.banks[name] = b
}

// Fields lists a databank's indexed fields (the only queryable surface).
func (s *System) Fields(bank string) []string {
	b := s.banks[bank]
	if b == nil {
		return nil
	}
	return append([]string(nil), b.fields...)
}

// Lookup returns the entries whose indexed field equals value
// (case-insensitive exact match — index lookups, not scans).
func (s *System) Lookup(bank, field, value string) ([]any, error) {
	b := s.banks[bank]
	if b == nil {
		return nil, fmt.Errorf("srs: unknown databank %q", bank)
	}
	ix, ok := b.indexes[field]
	if !ok {
		return nil, fmt.Errorf("srs: field %q of %q is not indexed; SRS only queries pre-defined fields", field, bank)
	}
	var out []any
	for _, i := range ix[strings.ToLower(strings.TrimSpace(value))] {
		out = append(out, b.entries[i])
	}
	return out, nil
}

// Follow traverses a pre-defined link: for each hit of the source
// lookup, the linked field's values are looked up as ids in the target
// databank. Only links declared at indexing time can be followed.
func (s *System) Follow(bank, field, value, linkField string) ([]any, error) {
	b := s.banks[bank]
	if b == nil {
		return nil, fmt.Errorf("srs: unknown databank %q", bank)
	}
	target, ok := b.links[linkField]
	if !ok {
		return nil, fmt.Errorf("srs: no pre-defined link on field %q; SRS follows only pre-defined links", linkField)
	}
	hits, err := s.Lookup(bank, field, value)
	if err != nil {
		return nil, err
	}
	ix := b.indexes[linkField]
	if ix == nil {
		return nil, fmt.Errorf("srs: link field %q is not indexed", linkField)
	}
	// Collect the link values carried by the hit entries.
	hitSet := map[any]bool{}
	for _, h := range hits {
		hitSet[h] = true
	}
	linkVals := map[string]bool{}
	for val, ords := range ix {
		for _, o := range ords {
			if hitSet[b.entries[o]] {
				linkVals[val] = true
			}
		}
	}
	var vals []string
	for v := range linkVals {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	var out []any
	for _, v := range vals {
		linked, err := s.Lookup(target, "id", v)
		if err != nil {
			return nil, err
		}
		out = append(out, linked...)
	}
	return out, nil
}

// CanAnswer reports whether a query shape is inside SRS's power:
// fieldIndexed — every searched field is pre-indexed; anyLevel — the
// query needs arbitrary-depth element access; adHocJoin — the query
// joins databases without a pre-defined link; theta — the query needs a
// non-equality comparison. This is the expressiveness matrix of §4.
func (s *System) CanAnswer(bank string, fieldIndexed, anyLevel, adHocJoin, theta bool) bool {
	if _, ok := s.banks[bank]; !ok {
		return false
	}
	return fieldIndexed && !anyLevel && !adHocJoin && !theta
}
