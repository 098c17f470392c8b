package shred

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"xomatiq/internal/sql"
	"xomatiq/internal/value"
)

// ErrLegacyOrder refuses a file written with Dewey sort keys in which a
// document's node ids do not follow its sort keys: its last_desc bounds
// cannot be derived from parent_id.
var ErrLegacyOrder = errors.New("shred: legacy document whose node ids are not in document order")

// migrateDewey rewrites a file whose four node tables still end in the
// Dewey sort key, in one batch: each table is read in heap order,
// dropped, created in its schemaDDL shape and refilled with the same
// rows and ids minus dewey, nodes gaining last_desc from parent_id; the
// statistics are collected again before the commit. A crash before the
// commit leaves the legacy file, which the next open migrates again.
// Open's IndexDDL rebuilds the indexes the drops took.
func migrateDewey(db *sql.DB) error {
	// One worker: the probe of the shape reads one page.
	rows, err := selectWith(db, `SELECT * FROM nodes LIMIT 1`, sql.ExecOpts{Workers: 1})
	if err != nil || rows.Columns[len(rows.Columns)-1] != "dewey" {
		return err
	}
	if err := db.Begin(); err != nil {
		return err
	}
	err = rewriteDewey(db)
	if err == nil {
		err = db.Analyze()
	}
	if err != nil {
		return errors.Join(err, db.Rollback())
	}
	return db.Commit()
}

func rewriteDewey(db *sql.DB) error {
	stmt := func(table string) string {
		for _, ddl := range schemaDDL {
			if strings.HasPrefix(ddl, "CREATE TABLE IF NOT EXISTS "+table+" ") {
				return ddl
			}
		}
		panic("shred: no DDL for " + table)
	}
	for _, table := range []string{"nodes", "values_str", "values_num", "seq_data"} {
		rows, err := selectWith(db, "SELECT * FROM "+table, sql.ExecOpts{Snap: db.BatchView()})
		if err != nil {
			return err
		}
		if last := rows.Columns[len(rows.Columns)-1]; last != "dewey" {
			return fmt.Errorf("shred: legacy %s ends in %q, not dewey", table, last)
		}
		if table == "nodes" {
			err = lastDescFromParents(rows.Rows)
		} else {
			for i, t := range rows.Rows {
				rows.Rows[i] = t[:len(t)-1]
			}
		}
		if err != nil {
			return err
		}
		if _, err := db.Exec("DROP TABLE " + table); err != nil {
			return err
		}
		if _, err := db.Exec(stmt(table)); err != nil {
			return err
		}
		if err := db.InsertBatch(table, rows.Rows); err != nil {
			return err
		}
	}
	return nil
}

// lastDescFromParents replaces the dewey column of legacy nodes rows
// (db, doc_id, node_id, parent_id, …, dewey) with last_desc. Within each
// document, node_id order must be sort-key order, so ids are pre-order
// ranks and every parent precedes its children; then a node's last
// descendant is the largest last_desc among its children, found in one
// pass from the highest id down.
func lastDescFromParents(nodes []value.Tuple) error {
	type docKey struct {
		db  string
		doc int64
	}
	byDoc := map[docKey][]int{}
	for i, t := range nodes {
		k := docKey{t[0].Text(), t[1].Int()}
		byDoc[k] = append(byDoc[k], i)
	}
	for k, rows := range byDoc {
		sort.Slice(rows, func(a, b int) bool { return nodes[rows[a]][2].Int() < nodes[rows[b]][2].Int() })
		pos := make(map[int64]int, len(rows))
		prev := ""
		for i, r := range rows {
			t := nodes[r]
			last := len(t) - 1
			id, parent, key := t[2].Int(), t[3].Int(), t[last].Text()
			if i > 0 && key <= prev {
				return fmt.Errorf("%w: node %d of document %d in %q sorts before node %d",
					ErrLegacyOrder, id, k.doc, k.db, nodes[rows[i-1]][2].Int())
			}
			if _, ok := pos[parent]; parent >= 0 && !ok {
				return fmt.Errorf("%w: node %d of document %d in %q precedes its parent %d",
					ErrLegacyOrder, id, k.doc, k.db, parent)
			}
			prev = key
			pos[id] = i
			t[last] = t[2] // a leaf is its own last descendant
		}
		for i := len(rows) - 1; i > 0; i-- {
			t := nodes[rows[i]]
			last := len(t) - 1
			if p, ok := pos[t[3].Int()]; ok && nodes[rows[p]][last].Int() < t[last].Int() {
				nodes[rows[p]][last] = t[last]
			}
		}
	}
	return nil
}

// selectWith runs one SELECT with the given options. Rows come in heap
// order for any worker count.
func selectWith(db *sql.DB, src string, o sql.ExecOpts) (*sql.Rows, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	return db.QueryStmtOptsContext(context.Background(), stmt.(*sql.Select), o)
}
