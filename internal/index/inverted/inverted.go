// Package inverted implements the keyword index behind XomatiQ's
// contains() extension ("simple keyword-based queries, similar to those
// found in web-based search engines"). It maps lowercased tokens to
// postings of (document, node) pairs, so a keyword query resolves to the
// exact text nodes that mention the word without scanning the warehouse.
//
// The index lives in memory and is rebuilt from the shredded warehouse on
// open; like the other indexes it sits outside the WAL.
package inverted

import (
	"maps"
	"slices"
	"strings"
	"unicode"
)

// Posting locates one occurrence scope: a node within a document.
type Posting struct {
	Doc  uint32
	Node uint32
}

// Index is the inverted keyword index. It has one writer: an index is
// changed only until it is published, and any number of goroutines may
// read a published one. Clone gives the writer a copy to change next.
type Index struct {
	postings map[string][]Posting
	byDoc    map[uint32][]string // tokens contributed by each document
	tokens   int
	owned    map[string]bool // tokens whose posting array this copy allocated
}

// New returns an empty index.
func New() *Index {
	return &Index{postings: map[string][]Posting{}, byDoc: map[uint32][]string{}, owned: map[string]bool{}}
}

// Tokenize splits text into lowercased index tokens: maximal runs of
// letters or digits, plus compound tokens where runs are joined by '.' or
// '-' (so EC numbers like "1.14.17.3" and names like "cdc6-like" are
// searchable as a whole).
func Tokenize(text string) []string {
	var out []string
	lower := strings.ToLower(text)
	n := len(lower)
	isAlnum := func(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }
	i := 0
	for i < n {
		r := rune(lower[i])
		if !isAlnum(r) {
			i++
			continue
		}
		// Scan a compound: alnum runs joined by single '.' or '-'.
		start := i
		var runs []string
		for i < n {
			j := i
			for j < n && isAlnum(rune(lower[j])) {
				j++
			}
			runs = append(runs, lower[i:j])
			i = j
			if i+1 < n && (lower[i] == '.' || lower[i] == '-') && isAlnum(rune(lower[i+1])) {
				i++
				continue
			}
			break
		}
		out = append(out, runs...)
		if len(runs) > 1 {
			out = append(out, lower[start:i])
		}
	}
	return out
}

// TokenizeDedup tokenizes text and drops repeats, preserving
// first-occurrence order — exactly the token set AddText would index.
// The parallel shredder calls this on worker goroutines so only the
// cheap ordered merge happens under the index lock.
func TokenizeDedup(text string) []string {
	toks := Tokenize(text)
	if len(toks) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(toks))
	out := toks[:0]
	for _, tok := range toks {
		if seen[tok] {
			continue
		}
		seen[tok] = true
		out = append(out, tok)
	}
	return out
}

// Clone returns a copy of the index that can be changed without
// changing ix. The two share posting arrays: AddTokens appends past the
// end that ix reads, and DeleteDoc copies an array before its first
// change to it.
func (ix *Index) Clone() *Index {
	return &Index{postings: maps.Clone(ix.postings), byDoc: maps.Clone(ix.byDoc), tokens: ix.tokens, owned: map[string]bool{}}
}

// AddText tokenizes text and indexes every token under (doc, node).
// Repeated tokens within one call are indexed once.
func (ix *Index) AddText(doc, node uint32, text string) {
	ix.AddTokens(doc, node, TokenizeDedup(text))
}

// AddTokens indexes pre-deduplicated tokens under (doc, node). Postings
// keep insertion order, so feeding per-document token shards in document
// order reproduces the index a sequential AddText pass would build.
func (ix *Index) AddTokens(doc, node uint32, toks []string) {
	if len(toks) == 0 {
		return
	}
	for _, tok := range toks {
		ix.postings[tok] = append(ix.postings[tok], Posting{Doc: doc, Node: node})
		ix.byDoc[doc] = append(ix.byDoc[doc], tok)
		ix.tokens++
	}
}

// Lookup returns the postings for one keyword (lowercased exact token
// match), in insertion order. The returned slice is a copy.
func (ix *Index) Lookup(keyword string) []Posting {
	return slices.Clone(ix.postings[strings.ToLower(strings.TrimSpace(keyword))])
}

// LookupDocs returns the distinct documents mentioning the keyword, in
// ascending order.
func (ix *Index) LookupDocs(keyword string) []uint32 {
	var docs []uint32
	for _, p := range ix.postings[strings.ToLower(strings.TrimSpace(keyword))] {
		docs = append(docs, p.Doc)
	}
	slices.Sort(docs)
	return slices.Compact(docs)
}

// DeleteDoc removes every posting contributed by doc (used when the Data
// Hounds incremental update replaces or deletes an entry).
func (ix *Index) DeleteDoc(doc uint32) {
	toks := ix.byDoc[doc]
	if toks == nil {
		return
	}
	for _, tok := range toks {
		list := ix.postings[tok]
		if !ix.owned[tok] {
			list, ix.owned[tok] = slices.Clone(list), true
		}
		kept := slices.DeleteFunc(list, func(p Posting) bool { return p.Doc == doc })
		ix.tokens -= len(list) - len(kept)
		if len(kept) == 0 {
			delete(ix.postings, tok)
		} else {
			ix.postings[tok] = kept
		}
	}
	delete(ix.byDoc, doc)
}

// Len reports the number of stored postings.
func (ix *Index) Len() int { return ix.tokens }

// DistinctTokens reports the vocabulary size.
func (ix *Index) DistinctTokens() int { return len(ix.postings) }
