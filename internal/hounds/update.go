package hounds

import (
	"crypto/sha256"
	"sort"
	"sync"

	"xomatiq/internal/xmldoc"
)

// ChangeSet describes an incremental update of one database: which entry
// keys were added, modified or removed between two harvests. The paper's
// requirement: "the ability to download and integrate the latest updates
// to any database without any information being left out or added twice".
type ChangeSet struct {
	DB       string
	Version  string
	Added    []string
	Modified []string
	Removed  []string
}

// Empty reports whether the change set carries no changes.
func (c ChangeSet) Empty() bool {
	return len(c.Added) == 0 && len(c.Modified) == 0 && len(c.Removed) == 0
}

// Total reports the number of changed entries.
func (c ChangeSet) Total() int { return len(c.Added) + len(c.Modified) + len(c.Removed) }

// Diff compares a new harvest against the warehoused one, given as entry
// name -> xmldoc.Document.Digest, and reports the delta. Added and
// Modified follow the new harvest's order, Removed is sorted by name.
// Entry names must be unique within new: the caller refuses a harvest
// that repeats one.
func Diff(db, version string, old map[string][sha256.Size]byte, new []*xmldoc.Document) ChangeSet {
	cs := ChangeSet{DB: db, Version: version}
	seen := make(map[string]bool, len(new))
	for _, d := range new {
		seen[d.Name] = true
		prev, existed := old[d.Name]
		switch {
		case !existed:
			cs.Added = append(cs.Added, d.Name)
		case prev != d.Digest():
			cs.Modified = append(cs.Modified, d.Name)
		}
	}
	for name := range old {
		if !seen[name] {
			cs.Removed = append(cs.Removed, name)
		}
	}
	sort.Strings(cs.Removed)
	return cs
}

// DiffDocs is Diff with the old harvest given as documents: it digests
// them, so reordered but identical entries are unchanged.
func DiffDocs(db, version string, old, new []*xmldoc.Document) ChangeSet {
	digests := make(map[string][sha256.Size]byte, len(old))
	for _, d := range old {
		digests[d.Name] = d.Digest()
	}
	return Diff(db, version, digests, new)
}

// Trigger is a warehouse-change notification. "Once the changes have
// been committed to the local warehouse, the Data Hounds sends out
// triggers to related applications."
type Trigger struct {
	Change ChangeSet
}

// Bus delivers triggers to subscribers synchronously, in subscription
// order.
type Bus struct {
	mu   sync.Mutex
	subs []func(Trigger)
}

// NewBus returns an empty trigger bus.
func NewBus() *Bus { return &Bus{} }

// Subscribe registers a callback for future triggers.
func (b *Bus) Subscribe(fn func(Trigger)) {
	b.mu.Lock()
	b.subs = append(b.subs, fn)
	b.mu.Unlock()
}

// Publish delivers a trigger to every subscriber.
func (b *Bus) Publish(t Trigger) {
	b.mu.Lock()
	subs := make([]func(Trigger), len(b.subs))
	copy(subs, b.subs)
	b.mu.Unlock()
	for _, fn := range subs {
		fn(t)
	}
}
