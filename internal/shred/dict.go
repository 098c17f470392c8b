// dict.go holds the dictionary: per database, the path ids, sequence
// paths, DTD and keyword index that query translation reads beside the
// tables. A Dict is immutable and published with the snapshot whose
// rows it describes (Store is the sql.Publisher), so a statement
// translates against the dictionary of the snapshot it reads. The
// writer changes one working copy, copying a database's entry at most
// once per published version; a rollback drops the copy.
package shred

import (
	"maps"
	"slices"
	"strings"

	"xomatiq/internal/index/inverted"
	"xomatiq/internal/sql"
)

// Dict is one version of the dictionary. A published Dict never
// changes; the writer's working copy (Store.Dict of the BatchView) is
// read by the writer alone.
type Dict struct {
	version uint64
	dbs     map[string]*dbDict
}

// dbDict is one database's entry.
type dbDict struct {
	version           uint64         // the Dict version that published this entry
	paths             map[string]int // path -> path_id
	nextPath, nextDoc int
	seqPaths          map[string]bool // frozen at registration
	dtd               string
	kw                *inverted.Index
}

func (e *dbDict) clone() *dbDict {
	c := *e
	c.paths = maps.Clone(e.paths)
	c.kw = e.kw.Clone()
	return &c
}

// Version counts the published versions that changed the dictionary.
func (d *Dict) Version() uint64 { return d.version }

// DBVersion is the version that last changed db's entry, 0 for a
// database the dictionary does not hold. A translation that reads only
// db stays valid while this is unchanged.
func (d *Dict) DBVersion(db string) uint64 {
	if e := d.dbs[db]; e != nil {
		return e.version
	}
	return 0
}

// HasDB reports whether a database is registered.
func (d *Dict) HasDB(db string) bool { return d.dbs[db] != nil }

// Databases lists registered database names, sorted.
func (d *Dict) Databases() []string {
	var out []string
	for db := range d.dbs {
		out = append(out, db)
	}
	slices.Sort(out)
	return out
}

// DTD returns the registered DTD text for a database.
func (d *Dict) DTD(db string) (string, bool) {
	if e := d.dbs[db]; e != nil {
		return e.dtd, true
	}
	return "", false
}

// Keywords returns the keyword index of a database (nil if unknown).
func (d *Dict) Keywords(db string) *inverted.Index {
	if e := d.dbs[db]; e != nil {
		return e.kw
	}
	return nil
}

// PathsMatching returns ids of dictionary paths matching the given
// element path pattern: an absolute /a/b/c or a descendant pattern
// //c or /a//c (the XQ2SQL translator resolves path expressions here).
func (d *Dict) PathsMatching(db, pattern string) []int {
	return d.paths(db, func(path string) bool { return pathMatches(pattern, path) })
}

// PathsUnder returns ids of dictionary paths that match the pattern or
// lie anywhere beneath a matching path — the resolution rule for
// subtree-scoped contains() ("limit the search to selected sub-trees").
func (d *Dict) PathsUnder(db, pattern string) []int {
	return d.paths(db, func(path string) bool { return pathOrAncestorMatches(pattern, path) })
}

func (d *Dict) paths(db string, match func(string) bool) []int {
	var out []int
	if e := d.dbs[db]; e != nil {
		for path, id := range e.paths {
			if match(path) {
				out = append(out, id)
			}
		}
	}
	slices.Sort(out)
	return out
}

// DictOf returns the dictionary published with snap: empty for a
// snapshot published before a Store was opened on its DB.
func DictOf(snap *sql.Snap) *Dict {
	if d, ok := snap.Published().(*Dict); ok {
		return d
	}
	return &Dict{}
}

// Dict returns the dictionary of view: the one published with a pinned
// snapshot, the writer's working copy for its BatchView, and the latest
// published one for nil.
func (s *Store) Dict(view *sql.Snap) *Dict {
	switch view {
	case nil:
		return s.pub.Load()
	case s.DB.BatchView():
		return s.work
	}
	return DictOf(view)
}

// Publish implements sql.Publisher: a publish that follows changes to
// the working copy publishes it as the next version, and the writer's
// next change to an entry copies it again. A publish that follows no
// change publishes the previous version once more.
func (s *Store) Publish() any {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.owned) == 0 {
		return s.pub.Load()
	}
	s.work.version++
	for db := range s.owned {
		s.work.dbs[db].version = s.work.version
	}
	clear(s.owned)
	d := &Dict{version: s.work.version, dbs: maps.Clone(s.work.dbs)}
	s.pub.Store(d)
	return d
}

// Rollback implements sql.Publisher: the working copy returns to the
// published version.
func (s *Store) Rollback() {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.pub.Load()
	s.work = &Dict{version: d.version, dbs: maps.Clone(d.dbs)}
	clear(s.owned)
}

// ownLocked returns the working entry of db for the writer to change,
// copying the published one first if this version has not yet; nil if
// db is not registered. Caller holds s.mu.
func (s *Store) ownLocked(db string) *dbDict {
	e := s.work.dbs[db]
	if e != nil && !s.owned[db] {
		e = e.clone()
		s.work.dbs[db] = e
		s.owned[db] = true
	}
	return e
}

func pathOrAncestorMatches(pattern, path string) bool {
	if pathMatches(pattern, path) {
		return true
	}
	// Test every proper element prefix of the path.
	for i := 1; i < len(path); i++ {
		if path[i] == '/' && pathMatches(pattern, path[:i]) {
			return true
		}
	}
	return false
}

// pathMatches matches a path pattern with // descendant separators
// against an absolute path.
func pathMatches(pattern, path string) bool {
	if !strings.Contains(pattern, "//") {
		return pattern == path
	}
	parts := strings.Split(pattern, "//")
	// The first part must be a prefix (or empty for a leading //); each
	// later part must appear in order; the last must end the path.
	pos := 0
	for i, part := range parts {
		if part == "" || part == "/" {
			continue
		}
		if i == 0 {
			if !strings.HasPrefix(path, part) {
				return false
			}
			pos = len(part)
			continue
		}
		seg := "/" + strings.Trim(part, "/")
		idx := strings.Index(path[pos:], seg)
		if idx < 0 {
			return false
		}
		pos += idx + len(seg)
	}
	last := parts[len(parts)-1]
	if last != "" {
		return strings.HasSuffix(path, "/"+strings.Trim(last, "/")) || path == last
	}
	return true
}
