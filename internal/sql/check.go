package sql

import (
	"bytes"
	"fmt"

	"xomatiq/internal/storage/disk"
	"xomatiq/internal/storage/heap"
	"xomatiq/internal/value"
)

// CheckConsistency verifies the mutual consistency of the catalog, every
// table heap and every secondary index. The crash-recovery harness calls
// it after each reopen; it is read-only and cheap enough for tests but
// scans every table in full, so it is not wired into normal operation.
//
// Checks performed:
//   - every catalog row decodes as a table or index row
//   - every heap record of every table decodes as a tuple of the
//     table's arity
//   - the heap's cached live count matches the records actually seen
//   - each B-tree index passes its structural Check, holds exactly one
//     entry per table row (keyed by tuple+RID, payload = the RID), and
//     no extras
//   - every page of the file has exactly one owner: the catalog heap, a
//     table heap, a B-tree, the free list, or the retired pages waiting
//     for a reader — none leaked, none owned twice
func (db *DB) CheckConsistency() error {
	db.mu.RLock()
	defer db.mu.RUnlock()

	// Catalog rows decode.
	var scanErr error
	err := db.catH.Scan(func(rid heap.RID, rec []byte) bool {
		tup, derr := value.DecodeTuple(rec)
		if derr != nil {
			scanErr = fmt.Errorf("sql: check: catalog row %v: %w", rid, derr)
			return false
		}
		if len(tup) == 0 {
			scanErr = fmt.Errorf("sql: check: empty catalog row %v", rid)
			return false
		}
		switch tup[0].Text() {
		case "T":
			_, _, _, scanErr = decodeTableRow(tup)
		case "I":
			_, _, _, _, scanErr = decodeIndexRow(tup)
		case "S":
			_, _, scanErr = decodeStatsRow(tup)
		default:
			scanErr = fmt.Errorf("sql: check: catalog row %v has tag %q", rid, tup[0].Text())
		}
		return scanErr == nil
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return err
	}

	for _, t := range db.cat.tables {
		if err := db.checkTable(t); err != nil {
			return err
		}
	}
	return db.checkPages()
}

// checkPages accounts for every page of the file.
func (db *DB) checkPages() error {
	owners := make([]string, db.mgr.NumPages())
	owners[0] = "file header"
	var err error
	own := func(owner string, id disk.PageID) {
		switch {
		case err != nil:
		case int(id) >= len(owners):
			err = fmt.Errorf("sql: check: %s holds page %d of a %d-page file", owner, id, len(owners))
		case owners[id] != "":
			err = fmt.Errorf("sql: check: page %d belongs to %s and to %s", id, owners[id], owner)
		default:
			owners[id] = owner
		}
	}
	if werr := db.eachLivePage(own); werr != nil {
		return werr
	}
	free, retired := db.pool.Recycling()
	for _, id := range free {
		own("free list", id)
	}
	for _, id := range retired {
		own("retired pages", id)
	}
	for _, id := range db.dead {
		own("pages of the open transaction's drops", id)
	}
	if err != nil {
		return err
	}
	for id, o := range owners {
		if o == "" {
			return fmt.Errorf("sql: check: page %d is leaked: nothing owns it and it is not free", id)
		}
	}
	return nil
}

func (db *DB) checkTable(t *TableInfo) error {
	type row struct {
		rid heap.RID
		tup value.Tuple
	}
	var rows []row
	var scanErr error
	err := t.Heap.Scan(func(rid heap.RID, rec []byte) bool {
		tup, derr := value.DecodeTuple(rec)
		if derr != nil {
			scanErr = fmt.Errorf("sql: check: table %q row %v: %w", t.Name, rid, derr)
			return false
		}
		if len(tup) != len(t.Columns) {
			scanErr = fmt.Errorf("sql: check: table %q row %v has %d values, want %d",
				t.Name, rid, len(tup), len(t.Columns))
			return false
		}
		rows = append(rows, row{rid, tup})
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return err
	}
	if t.Heap.Count() != len(rows) {
		return fmt.Errorf("sql: check: table %q cached count %d != scanned %d",
			t.Name, t.Heap.Count(), len(rows))
	}

	for _, ix := range t.Indexes {
		if ix.BTree == nil { // inside a DeferIndexes window
			continue
		}
		if err := ix.BTree.Check(); err != nil {
			return fmt.Errorf("sql: check: index %q: %w", ix.Name, err)
		}
		n, err := ix.BTree.Len()
		if err != nil {
			return fmt.Errorf("sql: check: index %q: %w", ix.Name, err)
		}
		if n != len(rows) {
			return fmt.Errorf("sql: check: index %q has %d entries, table %q has %d rows",
				ix.Name, n, t.Name, len(rows))
		}
		for _, r := range rows {
			val, ok, err := ix.BTree.Get(ix.Key(r.tup, r.rid))
			if err != nil {
				return fmt.Errorf("sql: check: index %q get: %w", ix.Name, err)
			}
			if !ok {
				return fmt.Errorf("sql: check: index %q missing row %v of %q",
					ix.Name, r.rid, t.Name)
			}
			if !bytes.Equal(val, ridBytes(r.rid)) {
				return fmt.Errorf("sql: check: index %q row %v payload mismatch",
					ix.Name, r.rid)
			}
		}
	}
	return nil
}
