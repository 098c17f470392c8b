// Package shred implements the XML2Relational-Transformer and the
// Relation2XML-Transformer (the "tagger") of the Data Hounds: XML
// documents become tuples of a generic relational schema, and whole
// documents are reconstructed back into XML. Query results are tagged
// by core.Result.
//
// The paper keeps its Oracle schema proprietary but states its design
// requirements (§2.2), all satisfied here:
//
//   - generic, instance-independent schema (edge/path tables below),
//   - document order preserved as a data value: node_id numbers a
//     document's nodes in pre-order (attributes first), and last_desc
//     is the highest node_id in the node's subtree, so the descendants
//     of n are exactly the rows with node_id in (n.node_id, n.last_desc]
//     (structure by reference, after XRecursive),
//   - sequence vs non-sequence data separated (seq_data table),
//   - string vs numeric values distinguished (values_str / values_num),
//   - efficient keyword-based search (inverted index over text values).
package shred

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"xomatiq/internal/index/inverted"
	"xomatiq/internal/sql"
)

// Schema DDL for the generic shredding schema. One warehouse database
// file stores many biological databases, discriminated by the db column.
var schemaDDL = []string{
	`CREATE TABLE IF NOT EXISTS warehouses (db TEXT, seq_paths TEXT, dtd TEXT)`,
	`CREATE TABLE IF NOT EXISTS docs (db TEXT, doc_id INT, name TEXT)`,
	`CREATE TABLE IF NOT EXISTS digests (db TEXT, doc_id INT, digest BYTES)`,
	`CREATE TABLE IF NOT EXISTS paths (db TEXT, path_id INT, path TEXT)`,
	`CREATE TABLE IF NOT EXISTS nodes (db TEXT, doc_id INT, node_id INT, parent_id INT,
	   kind INT, name TEXT, path_id INT, sib_pos INT, depth INT, last_desc INT)`,
	`CREATE TABLE IF NOT EXISTS values_str (db TEXT, doc_id INT, node_id INT, parent_id INT,
	   path_id INT, val TEXT)`,
	`CREATE TABLE IF NOT EXISTS values_num (db TEXT, doc_id INT, node_id INT, parent_id INT,
	   path_id INT, val FLOAT)`,
	`CREATE TABLE IF NOT EXISTS seq_data (db TEXT, doc_id INT, node_id INT, parent_id INT,
	   path_id INT, seq TEXT)`,
}

// IndexDDL creates the access-path indexes the paper tuned "by
// meticulous analysis of the query plans generated by the query
// optimizer".
var IndexDDL = []string{
	`CREATE INDEX IF NOT EXISTS idx_docs_name ON docs (db, name)`,
	`CREATE INDEX IF NOT EXISTS idx_digests_doc ON digests (db, doc_id)`,
	`CREATE INDEX IF NOT EXISTS idx_paths_path ON paths (db, path)`,
	`CREATE INDEX IF NOT EXISTS idx_nodes_doc ON nodes (db, doc_id)`,
	`CREATE INDEX IF NOT EXISTS idx_nodes_path ON nodes (db, path_id)`,
	`CREATE INDEX IF NOT EXISTS idx_vs ON values_str (db, path_id, val)`,
	`CREATE INDEX IF NOT EXISTS idx_vs_node ON values_str (db, doc_id, node_id)`,
	`CREATE INDEX IF NOT EXISTS idx_vn ON values_num (db, path_id, val)`,
	`CREATE INDEX IF NOT EXISTS idx_seq_node ON seq_data (db, doc_id, node_id)`,
}

// Node kind codes in the nodes table.
const (
	kindElem = 0
	kindAttr = 1
	kindText = 2
)

// Store is the shredded warehouse over one relational database. It is
// safe for concurrent use: the relational engine serialises tuple
// access, and mu guards the in-memory dictionaries while loads run
// concurrently with query translation.
type Store struct {
	DB *sql.DB

	mu       sync.RWMutex
	paths    map[string]map[string]int // db -> path -> path_id
	nextPath map[string]int
	nextDoc  map[string]int
	seqPaths map[string]map[string]bool
	kw       map[string]*inverted.Index
	dtds     map[string]string
	epochs   map[string]uint64 // db -> catalog epoch, bumped on any content change
}

// Epoch returns the catalog epoch of a database. The epoch advances on
// every content mutation (register, load, delete, clear), so a cached
// query translation is valid exactly while the epochs of every database
// it references are unchanged: translated SQL embeds path ids and
// keyword-prefilter doc-id lists that those mutations invalidate.
func (s *Store) Epoch(db string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epochs[db]
}

func (s *Store) bumpEpoch(db string) {
	s.mu.Lock()
	s.epochs[db]++
	s.mu.Unlock()
}

// BumpEpoch advances the catalog epoch of db, invalidating cached query
// translations. InsertChunk does not bump the epoch itself — a loader
// calls this once per load, so a 1000-document harness invalidates
// concurrent readers once instead of once per chunk.
func (s *Store) BumpEpoch(db string) { s.bumpEpoch(db) }

// AnalyzeStats recomputes the relational engine's optimizer statistics
// over the warehouse tables. Loaders call it once per bulk load (after
// the data has committed, before the epoch bump publishes it), so the
// per-path row counts and value distributions the cost-based planner
// reads always describe the current harvest.
func (s *Store) AnalyzeStats() error { return s.DB.Analyze() }

// Open attaches the shredding schema to db, creating tables on first
// use, migrating a file written with Dewey sort keys (migrateDewey), and
// rebuilding the in-memory path cache and keyword indexes.
func Open(db *sql.DB) (*Store, error) {
	for _, ddl := range schemaDDL {
		if _, err := db.Exec(ddl); err != nil {
			return nil, fmt.Errorf("shred: schema: %w", err)
		}
	}
	if err := migrateDewey(db); err != nil {
		return nil, fmt.Errorf("shred: migrating sort keys: %w", err)
	}
	for _, ddl := range IndexDDL {
		if _, err := db.Exec(ddl); err != nil {
			return nil, fmt.Errorf("shred: indexes: %w", err)
		}
	}
	s := &Store{
		DB:       db,
		paths:    map[string]map[string]int{},
		nextPath: map[string]int{},
		nextDoc:  map[string]int{},
		seqPaths: map[string]map[string]bool{},
		kw:       map[string]*inverted.Index{},
		dtds:     map[string]string{},
		epochs:   map[string]uint64{},
	}
	if err := s.loadState(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) loadState() error {
	rows, err := s.DB.Query(`SELECT db, seq_paths, dtd FROM warehouses`)
	if err != nil {
		return err
	}
	for _, r := range rows.Rows {
		db := r[0].Text()
		set := map[string]bool{}
		if !r[1].IsNull() && r[1].Text() != "" {
			for _, p := range strings.Split(r[1].Text(), ";") {
				set[p] = true
			}
		}
		s.seqPaths[db] = set
		if !r[2].IsNull() {
			s.dtds[db] = r[2].Text()
		}
		s.kw[db] = inverted.New()
	}
	rows, err = s.DB.Query(`SELECT db, path_id, path FROM paths`)
	if err != nil {
		return err
	}
	for _, r := range rows.Rows {
		db, id, path := r[0].Text(), int(r[1].Int()), r[2].Text()
		if s.paths[db] == nil {
			s.paths[db] = map[string]int{}
		}
		s.paths[db][path] = id
		if id >= s.nextPath[db] {
			s.nextPath[db] = id + 1
		}
	}
	rows, err = s.DB.Query(`SELECT db, doc_id FROM docs`)
	if err != nil {
		return err
	}
	for _, r := range rows.Rows {
		db, id := r[0].Text(), int(r[1].Int())
		if id >= s.nextDoc[db] {
			s.nextDoc[db] = id + 1
		}
	}
	// Rebuild keyword indexes from non-sequence text values.
	rows, err = s.DB.Query(`SELECT db, doc_id, node_id, val FROM values_str`)
	if err != nil {
		return err
	}
	for _, r := range rows.Rows {
		db := r[0].Text()
		ix := s.kw[db]
		if ix == nil {
			ix = inverted.New()
			s.kw[db] = ix
		}
		ix.AddText(uint32(r[1].Int()), uint32(r[2].Int()), r[3].Text())
	}
	return nil
}

// Reload rebuilds the in-memory dictionaries — path ids, doc-id
// counters, sequence-path sets, keyword indexes and DTDs — from the
// relational tables. It is the recovery step after a transaction
// rollback: the relational engine replayed itself back to the last
// committed state, while the dictionaries ran ahead with the aborted
// writes. Every previously or newly known database's catalog epoch is
// bumped, so cached query translations (which embed path ids and
// keyword doc-id prefilter lists) are invalidated.
func (s *Store) Reload() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.epochs
	s.paths = map[string]map[string]int{}
	s.nextPath = map[string]int{}
	s.nextDoc = map[string]int{}
	s.seqPaths = map[string]map[string]bool{}
	s.kw = map[string]*inverted.Index{}
	s.dtds = map[string]string{}
	if err := s.loadState(); err != nil {
		return err
	}
	s.epochs = map[string]uint64{}
	for db, e := range old {
		s.epochs[db] = e + 1
	}
	for db := range s.seqPaths {
		if _, ok := s.epochs[db]; !ok {
			s.epochs[db] = old[db] + 1
		}
	}
	return nil
}

// Quote escapes a string for inclusion in a SQL literal.
func Quote(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

// RegisterDB declares one biological database in the warehouse: its
// sequence paths and the DTD to display for query formulation.
func (s *Store) RegisterDB(db string, seqPaths []string, dtdText string) error {
	s.mu.Lock()
	if _, exists := s.seqPaths[db]; exists {
		s.mu.Unlock()
		return nil
	}
	set := map[string]bool{}
	for _, p := range seqPaths {
		set[p] = true
	}
	s.seqPaths[db] = set
	s.kw[db] = inverted.New()
	s.dtds[db] = dtdText
	s.epochs[db]++
	s.mu.Unlock()
	_, err := s.DB.Exec(fmt.Sprintf(
		`INSERT INTO warehouses VALUES (%s, %s, %s)`,
		Quote(db), Quote(strings.Join(seqPaths, ";")), Quote(dtdText)))
	return err
}

// HasDB reports whether a database is registered.
func (s *Store) HasDB(db string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.seqPaths[db]
	return ok
}

// Databases lists registered database names, sorted.
func (s *Store) Databases() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for db := range s.seqPaths {
		out = append(out, db)
	}
	sort.Strings(out)
	return out
}

// DTD returns the registered DTD text for a database.
func (s *Store) DTD(db string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.dtds[db]
	return d, ok
}

// Keywords exposes the keyword index of a database (nil if unknown).
// The index has its own internal locking.
func (s *Store) Keywords(db string) *inverted.Index {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.kw[db]
}

// PathsMatching returns ids of dictionary paths matching the given
// element path pattern: an absolute /a/b/c or a descendant pattern
// //c or /a//c (the XQ2SQL translator resolves path expressions here).
func (s *Store) PathsMatching(db, pattern string) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []int
	for path, id := range s.paths[db] {
		if pathMatches(pattern, path) {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// PathsUnder returns ids of dictionary paths that match the pattern or
// lie anywhere beneath a matching path — the resolution rule for
// subtree-scoped contains() ("limit the search to selected sub-trees").
func (s *Store) PathsUnder(db, pattern string) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []int
	for path, id := range s.paths[db] {
		if pathOrAncestorMatches(pattern, path) {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
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

// docID resolves a document name to its id through view.
func (s *Store) docID(db, name string, view *sql.Snap) (int, bool, error) {
	rows, err := s.query(view, `SELECT doc_id FROM docs WHERE db = %s AND name = %s`, Quote(db), Quote(name))
	if err != nil {
		return 0, false, err
	}
	if len(rows.Rows) == 0 {
		return 0, false, nil
	}
	return int(rows.Rows[0][0].Int()), true, nil
}

// query runs one SELECT, built from format and args, against view: a
// pinned snapshot, the writer's BatchView, or nil for the published
// snapshot of the moment.
func (s *Store) query(view *sql.Snap, format string, args ...any) (*sql.Rows, error) {
	stmt, err := sql.Parse(fmt.Sprintf(format, args...))
	if err != nil {
		return nil, err
	}
	return s.DB.QueryStmtOptsContext(context.Background(), stmt.(*sql.Select), sql.ExecOpts{Snap: view})
}

// WarehouseInfo summarises one registered database.
type WarehouseInfo struct {
	DB    string
	Docs  int
	Paths int
}

// Overview reports every registered database with its document and
// dictionary-path counts, sorted by name. The dictionary state is read
// under ONE RLock acquisition and the document counts come from a single
// grouped query, so the listing cannot interleave with a concurrent
// load's per-database mutations.
func (s *Store) Overview() ([]WarehouseInfo, error) {
	s.mu.RLock()
	var out []WarehouseInfo
	for db := range s.seqPaths {
		out = append(out, WarehouseInfo{DB: db, Paths: len(s.paths[db])})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].DB < out[j].DB })
	rows, err := s.DB.Query(`SELECT db, COUNT(*) FROM docs GROUP BY db`)
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int, len(rows.Rows))
	for _, r := range rows.Rows {
		counts[r[0].Text()] = int(r[1].Int())
	}
	for i := range out {
		out[i].Docs = counts[out[i].DB]
	}
	return out, nil
}

// DocCount reports the number of documents in a database.
func (s *Store) DocCount(db string) (int, error) {
	rows, err := s.DB.Query(fmt.Sprintf(
		`SELECT COUNT(*) FROM docs WHERE db = %s`, Quote(db)))
	if err != nil {
		return 0, err
	}
	return int(rows.Rows[0][0].Int()), nil
}

// ClearDatabase removes every document of a database in one pass (the
// full re-harness path). The registration, DTD and path dictionary stay.
func (s *Store) ClearDatabase(db string) error {
	if !s.HasDB(db) {
		return fmt.Errorf("shred: database %q not registered", db)
	}
	// A database without documents has no rows in any table, and the
	// small docs table says so without a pass over the large ones (inside
	// a deferred-index window each DELETE scans its whole heap). The
	// writer counts in its own batch.
	rows, err := s.query(s.DB.BatchView(), `SELECT COUNT(*) FROM docs WHERE db = %s`, Quote(db))
	if err != nil {
		return err
	}
	tables := docTables
	if rows.Rows[0][0].Int() == 0 {
		tables = nil
	}
	for _, table := range tables {
		if _, err := s.DB.Exec(fmt.Sprintf(
			`DELETE FROM %s WHERE db = %s`, table, Quote(db))); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.kw[db] = inverted.New()
	s.nextDoc[db] = 0
	s.epochs[db]++
	s.mu.Unlock()
	return nil
}

// docTables are the tables that hold a row per document or per node,
// each keyed by (db, doc_id).
var docTables = []string{"docs", "digests", "nodes", "values_str", "values_num", "seq_data"}

// DeleteDocument removes a document and all its shredded tuples (the
// incremental-update path for removed or modified entries). The writer
// looks the name up in its own open batch: after a ClearDatabase in the
// same batch, the committed id of the name belongs to another document.
func (s *Store) DeleteDocument(db, name string) error {
	id, ok, err := s.docID(db, name, s.DB.BatchView())
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("shred: no document %q in %q", name, db)
	}
	for _, table := range docTables {
		if _, err := s.DB.Exec(fmt.Sprintf(
			`DELETE FROM %s WHERE db = %s AND doc_id = %d`, table, Quote(db), id)); err != nil {
			return err
		}
	}
	if kw := s.kw[db]; kw != nil {
		kw.DeleteDoc(uint32(id))
	}
	// Optimizer statistics are NOT refreshed here: deletions run inside
	// the caller's batch (ANALYZE cannot), and the update pipeline that
	// follows re-analyzes once the replacement loads commit. Live row
	// counts come from the heaps anyway, so only value-distribution
	// fractions go briefly stale.
	s.bumpEpoch(db)
	return nil
}
