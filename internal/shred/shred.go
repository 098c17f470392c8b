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
//   - efficient keyword-based search (inverted index over text values,
//     published with each snapshot beside the path dictionary: dict.go).
package shred

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

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
// access, readers take the dictionary published with the snapshot they
// read (Dict), and one writer at a time changes the working copy.
type Store struct {
	DB *sql.DB

	pub atomic.Pointer[Dict] // the latest published dictionary

	// mu guards the writer's working copy and the entries it owns since
	// the last publish.
	mu    sync.Mutex
	work  *Dict
	owned map[string]bool
}

// Deprecated: BumpEpoch does nothing, kept for the ledger; a cached
// translation is valid for the dictionary version it was made against.
func (s *Store) BumpEpoch(string) {}

// AnalyzeStats recomputes the relational engine's optimizer statistics
// over the warehouse tables. Loaders call it once per bulk load, after
// the data has committed, so the per-path row counts and value
// distributions the cost-based planner reads always describe the
// current harvest.
func (s *Store) AnalyzeStats() error { return s.DB.Analyze() }

// Open attaches the shredding schema to db, creating tables on first
// use, migrating a file written with Dewey sort keys (migrateDewey),
// building the dictionary from the tables and publishing it with db's
// snapshots from then on.
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
	s := &Store{DB: db, work: &Dict{dbs: map[string]*dbDict{}}, owned: map[string]bool{}}
	s.pub.Store(&Dict{dbs: map[string]*dbDict{}})
	if err := s.loadState(); err != nil {
		return nil, err
	}
	db.SetPublisher(s)
	return s, nil
}

func (s *Store) loadState() error {
	rows, err := s.DB.Query(`SELECT db, seq_paths, dtd FROM warehouses`)
	if err != nil {
		return err
	}
	for _, r := range rows.Rows {
		var seq []string
		if !r[1].IsNull() && r[1].Text() != "" {
			seq = strings.Split(r[1].Text(), ";")
		}
		var dtd string
		if !r[2].IsNull() {
			dtd = r[2].Text()
		}
		s.addLocked(r[0].Text(), seq, dtd)
	}
	rows, err = s.DB.Query(`SELECT db, path_id, path FROM paths`)
	if err != nil {
		return err
	}
	for _, r := range rows.Rows {
		if e, id := s.work.dbs[r[0].Text()], int(r[1].Int()); e != nil {
			e.paths[r[2].Text()] = id
			e.nextPath = max(e.nextPath, id+1)
		}
	}
	rows, err = s.DB.Query(`SELECT db, doc_id FROM docs`)
	if err != nil {
		return err
	}
	for _, r := range rows.Rows {
		if e := s.work.dbs[r[0].Text()]; e != nil {
			e.nextDoc = max(e.nextDoc, int(r[1].Int())+1)
		}
	}
	// Rebuild keyword indexes from non-sequence text values.
	rows, err = s.DB.Query(`SELECT db, doc_id, node_id, val FROM values_str`)
	if err != nil {
		return err
	}
	for _, r := range rows.Rows {
		if e := s.work.dbs[r[0].Text()]; e != nil {
			e.kw.AddText(uint32(r[1].Int()), uint32(r[2].Int()), r[3].Text())
		}
	}
	return nil
}

// addLocked adds a database to the working copy. Caller holds s.mu or
// owns the Store alone.
func (s *Store) addLocked(db string, seqPaths []string, dtdText string) {
	set := map[string]bool{}
	for _, p := range seqPaths {
		set[p] = true
	}
	s.work.dbs[db] = &dbDict{paths: map[string]int{}, seqPaths: set, dtd: dtdText, kw: inverted.New()}
	s.owned[db] = true
}

// Quote escapes a string for inclusion in a SQL literal.
func Quote(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

// RegisterDB declares one biological database in the warehouse: its
// sequence paths and the DTD to display for query formulation. It runs
// outside a batch: the commit of its warehouses row publishes the
// registration, and a failed one leaves the database unregistered.
func (s *Store) RegisterDB(db string, seqPaths []string, dtdText string) error {
	s.mu.Lock()
	if s.work.dbs[db] != nil {
		s.mu.Unlock()
		return nil
	}
	s.addLocked(db, seqPaths, dtdText)
	s.mu.Unlock()
	_, err := s.DB.Exec(fmt.Sprintf(
		`INSERT INTO warehouses VALUES (%s, %s, %s)`,
		Quote(db), Quote(strings.Join(seqPaths, ";")), Quote(dtdText)))
	if err != nil {
		// A statement that failed before writing rolled nothing back, and
		// outside a batch the working copy holds only the registration.
		s.Rollback()
	}
	return err
}

// Deprecated: Keywords returns the latest published keyword index of a
// database, kept for the ledger; read Dict(view).Keywords.
func (s *Store) Keywords(db string) *inverted.Index { return s.Dict(nil).Keywords(db) }

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
	return selectWith(s.DB, fmt.Sprintf(format, args...), sql.ExecOpts{Snap: view})
}

// WarehouseInfo summarises one registered database.
type WarehouseInfo struct {
	DB    string
	Docs  int
	Paths int
}

// Overview reports every registered database with its document and
// dictionary-path counts, sorted by name, both read from one pinned
// snapshot, so the listing cannot interleave with a concurrent load.
func (s *Store) Overview() ([]WarehouseInfo, error) {
	snap := s.DB.AcquireSnapshot()
	defer s.DB.ReleaseSnapshot(snap)
	rows, err := s.query(snap, `SELECT db, COUNT(*) FROM docs GROUP BY db`)
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int, len(rows.Rows))
	for _, r := range rows.Rows {
		counts[r[0].Text()] = int(r[1].Int())
	}
	d := DictOf(snap)
	var out []WarehouseInfo
	for _, db := range d.Databases() {
		out = append(out, WarehouseInfo{DB: db, Docs: counts[db], Paths: len(d.dbs[db].paths)})
	}
	return out, nil
}

// DocCount reports the number of documents in a database.
func (s *Store) DocCount(db string) (int, error) {
	rows, err := s.query(nil, `SELECT COUNT(*) FROM docs WHERE db = %s`, Quote(db))
	if err != nil {
		return 0, err
	}
	return int(rows.Rows[0][0].Int()), nil
}

// ClearDatabase removes every document of a database in one pass (the
// full re-harness path). The registration, DTD and path dictionary stay;
// the keyword index and the document ids start over.
func (s *Store) ClearDatabase(db string) error {
	s.mu.Lock()
	registered := s.work.dbs[db] != nil
	s.mu.Unlock()
	if !registered {
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
	if rows.Rows[0][0].Int() == 0 {
		return nil
	}
	// The dictionary changes first, so that outside a batch the DELETE
	// that commits publishes it.
	s.mu.Lock()
	e := s.ownLocked(db)
	e.kw, e.nextDoc = inverted.New(), 0
	s.mu.Unlock()
	for _, table := range docTables {
		if _, err := s.DB.Exec(fmt.Sprintf(
			`DELETE FROM %s WHERE db = %s`, table, Quote(db))); err != nil {
			return err
		}
	}
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
	// The dictionary changes first, as in ClearDatabase.
	s.mu.Lock()
	if e := s.ownLocked(db); e != nil {
		e.kw.DeleteDoc(uint32(id))
	}
	s.mu.Unlock()
	for _, table := range docTables {
		// idx_docs_name keys docs by (db, name); by doc_id the delete
		// would read every docs row of db.
		key := fmt.Sprintf("doc_id = %d", id)
		if table == "docs" {
			key = "name = " + Quote(name)
		}
		if _, err := s.DB.Exec(fmt.Sprintf(
			`DELETE FROM %s WHERE db = %s AND %s`, table, Quote(db), key)); err != nil {
			return err
		}
	}
	// Optimizer statistics are NOT refreshed here: deletions run inside
	// the caller's batch (ANALYZE cannot), and the load pipeline they run
	// in re-analyzes once its chunks commit. Live row
	// counts come from the heaps anyway, so only value-distribution
	// fractions go briefly stale.
	return nil
}
