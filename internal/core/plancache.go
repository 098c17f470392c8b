package core

import (
	"container/list"
	"strings"
	"sync"

	"xomatiq/internal/sql"
	"xomatiq/internal/xq"
	"xomatiq/internal/xq2sql"
)

// DefaultPlanCacheSize is the entry capacity of an engine's plan cache.
const DefaultPlanCacheSize = 128

// planEntry is one cached pipeline outcome: the parsed query plus either
// its SQL translation or the fact that translation is unsupported (so the
// native fallback is taken without re-trying the translator). Validity is
// tied to the catalog epochs of every database the query references —
// generated SQL embeds path ids and keyword-prefilter doc-id lists, so a
// content change to any referenced database makes the plan wrong, not
// just stale.
type planEntry struct {
	q           *xq.Query
	tr          *xq2sql.Translation
	stmt        *sql.Select // translated SQL, parsed once
	unsupported bool
	epochs      map[string]uint64 // db -> epoch captured at translation time
}

// PlanCacheStats is a snapshot of plan-cache effectiveness counters.
type PlanCacheStats struct {
	Entries       int
	Hits          uint64
	Misses        uint64
	Invalidations uint64 // hits discarded because a catalog epoch moved
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

// get returns the entry for a key and whether it was present, promoting
// it to most recently used. The caller validates epochs; stale entries
// are removed with invalidate.
func (c *planCache) get(key string) (*planEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return el.Value.(*planItem).entry, true
}

// put inserts or replaces the entry for a key, evicting the least
// recently used entry when over capacity.
func (c *planCache) put(key string, e *planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*planItem).entry = e
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

// invalidate removes a key after its epochs were found stale.
func (c *planCache) invalidate(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.lru.Remove(el)
		delete(c.items, key)
		c.invalidations++
		c.hits-- // the stale lookup was not a usable hit
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
