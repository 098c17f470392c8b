package sql

import (
	"fmt"
	"sort"
	"strings"

	"xomatiq/internal/storage/heap"
	"xomatiq/internal/value"
)

// Stats summarises the physical state of a database.
type Stats struct {
	FilePages  int // pages in the data file, including the header
	WALBytes   int64
	DirtyPages int
	// Buffer-pool shard layout and cumulative cache effectiveness since
	// open; concurrent readers bump the counters without the pool lock.
	PoolShards    int
	PoolHits      uint64
	PoolMisses    uint64
	PoolEvictions uint64
	// Where FilePages went, beside the per-table figures: pages on the
	// free list, and pages retired but still held back by a pinned reader.
	FreePages    int
	RetiredPages int
	Tables       []TableStats
}

// TableStats describes one table.
type TableStats struct {
	Name    string
	Rows    int
	Indexes []string
	// HeapPages is the length of the heap chain and HeapBytes the payload
	// of its live records; HeapBytes over HeapPages*8192 is the fill
	// factor. IndexPages counts anchor and nodes per B-tree, by index
	// name (inside a DeferIndexes window no index has pages).
	HeapPages  int
	HeapBytes  int64
	IndexPages map[string]int
}

// Stats reports the database's physical statistics.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ps := db.pool.Stats()
	free, retired := db.pool.Recycling()
	s := Stats{
		FilePages:     db.mgr.NumPages(),
		WALBytes:      db.log.Size(),
		DirtyPages:    db.pool.DirtyCount(),
		PoolShards:    ps.Shards,
		PoolHits:      ps.Hits,
		PoolMisses:    ps.Misses,
		PoolEvictions: ps.Evictions,
		FreePages:     len(free),
		RetiredPages:  len(retired),
	}
	for _, t := range db.cat.tables {
		ts := TableStats{
			Name: t.Name, Rows: t.Heap.Count(),
			HeapPages: t.Heap.NumPages(), HeapBytes: t.Heap.Bytes(),
			IndexPages: map[string]int{},
		}
		for _, ix := range t.Indexes {
			if ix.BTree != nil {
				ts.IndexPages[ix.Name] = ix.BTree.NumPages()
			}
			ts.Indexes = append(ts.Indexes, fmt.Sprintf("%s(btree %s)", ix.Name, strings.Join(ix.Columns, ",")))
		}
		sort.Strings(ts.Indexes)
		s.Tables = append(s.Tables, ts)
	}
	sort.Slice(s.Tables, func(i, j int) bool { return s.Tables[i].Name < s.Tables[j].Name })
	return s
}

// CompactTo rewrites the live contents of the database into a fresh file
// at path — the VACUUM operation. Dropped tables and superseded indexes
// no longer leak (their pages are recycled in place), so what it still
// reclaims is what recycling cannot: free pages the file keeps at its
// size, heap pages emptied by deletes, and B+tree nodes left underfull
// (this engine's trees do not merge on delete). The source database is
// unchanged; callers swap files afterwards.
func (db *DB) CompactTo(path string, opts Options) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out, err := Open(path, opts)
	if err != nil {
		return err
	}
	// Copy tables and rows in one batch, then recreate indexes.
	names := make([]string, 0, len(db.cat.tables))
	for n := range db.cat.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	if err := out.Begin(); err != nil {
		out.Close()
		return err
	}
	for _, n := range names {
		t := db.cat.tables[n]
		if _, err := out.ExecStmt(&CreateTable{Name: t.Name, Columns: t.Columns}); err != nil {
			out.Close()
			return fmt.Errorf("sql: compact: create %s: %w", t.Name, err)
		}
		var serr error
		scanErr := t.Heap.Scan(func(_ heap.RID, rec []byte) bool {
			tup, derr := value.DecodeTuple(rec)
			if derr != nil {
				serr = derr
				return false
			}
			if derr := out.InsertTuple(t.Name, tup); derr != nil {
				serr = derr
				return false
			}
			return true
		})
		if scanErr != nil {
			out.Close()
			return scanErr
		}
		if serr != nil {
			out.Close()
			return serr
		}
	}
	if err := out.Commit(); err != nil {
		out.Close()
		return err
	}
	for _, n := range names {
		t := db.cat.tables[n]
		for _, ix := range t.Indexes {
			stmt := &CreateIndex{Name: ix.Name, Table: t.Name, Columns: ix.Columns}
			if _, err := out.ExecStmt(stmt); err != nil {
				out.Close()
				return fmt.Errorf("sql: compact: index %s: %w", ix.Name, err)
			}
		}
	}
	return out.Close()
}
