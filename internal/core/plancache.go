package core

import (
	"container/list"
	"strings"
	"sync"

	"xomatiq/internal/shred"
	"xomatiq/internal/sql"
	"xomatiq/internal/xq"
	"xomatiq/internal/xq2sql"
)

// DefaultPlanCacheSize is the entry capacity of an engine's plan cache.
const DefaultPlanCacheSize = 128

// planEntry is one cached pipeline outcome: the parsed query plus either
// its SQL translation or the fact that translation is unsupported (so the
// native fallback is taken without re-trying the translator). The
// generated SQL embeds path ids and keyword-prefilter doc-id lists, so
// an entry serves a statement only if the statement's dictionary holds
// every database the query references at the version it was translated
// against.
type planEntry struct {
	q           *xq.Query
	tr          *xq2sql.Translation
	stmt        *sql.Select // translated SQL, parsed once
	unsupported bool
	version     uint64            // the dictionary's version
	versions    map[string]uint64 // db -> its entry's version (shred.Dict.DBVersion)
}

// validFor reports whether the entry's translation is the one d gives.
func (e *planEntry) validFor(d *shred.Dict) bool {
	for db, v := range e.versions {
		if d.DBVersion(db) != v {
			return false
		}
	}
	return true
}

// PlanCacheStats is a snapshot of plan-cache effectiveness counters.
type PlanCacheStats struct {
	Entries int
	Hits    uint64
	Misses  uint64
	// Invalidations counts the misses that found the query cached
	// against an older version of a database it reads, and dropped it.
	Invalidations uint64
}

// planCache is an LRU over normalised query text.
type planCache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // of *planItem; front = most recently used
	items map[string]*list.Element

	hits, misses, invalidations uint64
}

type planItem struct {
	key   string
	entry *planEntry
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, lru: list.New(), items: map[string]*list.Element{}}
}

// normalizeQuery collapses each run of whitespace outside string
// literals to one space and drops it at the ends, so reformatted copies
// of the same query share a cache entry. A literal ("…" or '…'; xq's
// have no escapes) is copied byte for byte: two queries that differ
// inside one ask different questions.
func normalizeQuery(src string) string {
	var b strings.Builder
	b.Grow(len(src))
	var quote byte // the open literal's quote, or 0
	space := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == ' ' || c == '\t' || c == '\n' || c == '\r': // what xq skips
			space = true
			continue
		case c == '"' || c == '\'':
			quote = c
		}
		if space && b.Len() > 0 {
			b.WriteByte(' ')
		}
		space = false
		b.WriteByte(c)
	}
	return b.String()
}

// get returns the entry for a key that is valid for the dictionary d,
// promoting it to most recently used. An entry translated against an
// older dictionary than d is dropped; one translated against a newer
// dictionary stays for the statements that read it.
func (c *planCache) get(key string, d *shred.Dict) (*planEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	e := el.Value.(*planItem).entry
	if !e.validFor(d) {
		c.misses++
		if e.version < d.Version() {
			c.lru.Remove(el)
			delete(c.items, key)
			c.invalidations++
		}
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return e, true
}

// put inserts or replaces the entry for a key, evicting the least
// recently used entry when over capacity. An entry translated against a
// newer dictionary is not replaced by an older one.
func (c *planCache) put(key string, e *planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		if it := el.Value.(*planItem); it.entry.version <= e.version {
			it.entry = e
		}
		c.lru.MoveToFront(el)
		return
	}
	c.items[key] = c.lru.PushFront(&planItem{key: key, entry: e})
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.items, back.Value.(*planItem).key)
	}
}

// stats snapshots the counters.
func (c *planCache) stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Entries:       c.lru.Len(),
		Hits:          c.hits,
		Misses:        c.misses,
		Invalidations: c.invalidations,
	}
}
