// Snapshot publication: the bridge between the buffer pool's page-version
// store (bufpool mvcc.go) and the executor. Every commit publishes a Snap
// — an immutable catalog view (frozen heaps and B-tree anchors) bound to
// the new epoch — and queries that opt into snapshot reads resolve tables
// through it instead of the live catalog, without holding db.mu. Bulk
// loads and updates then commit concurrently with running scans: readers
// at older epochs see retained page versions, never a half-written page.
package sql

import (
	"fmt"
	"runtime"
)

// Snap is one published snapshot: the table catalog as of an epoch, with
// every heap and B-tree frozen at that epoch. A Snap is immutable and
// shared — AcquireSnapshot hands the same Snap to every reader of the
// current epoch, each holding its own epoch pin. Hash indexes are
// excluded from snapshots (they are in-memory structures mutated in
// place); snapshot-mode queries fall back to B-tree or sequential access.
type Snap struct {
	epoch  uint64
	tables map[string]*TableInfo

	// indexesOK records whether secondary indexes were consistent with
	// the heaps at publish time: during a deferred-index bulk load the
	// per-chunk snapshots carry heap rows the B-trees miss, so snapshot
	// queries at those epochs must use sequential scans.
	indexesOK bool
	// rollbackGen is the DB's rollback generation at publish time. A
	// rollback discards unflushed index pages and rebuilds trees at new
	// anchors, which can leave this snapshot's frozen tree views naming
	// pages that never reached disk; queries detect the generation bump
	// at statement start and drop to sequential scans (heap pages are
	// WAL-protected and replay restores them, so heaps stay readable).
	rollbackGen uint64
}

// Epoch reports the snapshot's engine epoch.
func (s *Snap) Epoch() uint64 { return s.epoch }

// table resolves a table in the snapshot's catalog view.
func (s *Snap) table(name string) (*TableInfo, error) {
	if t, ok := s.tables[name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("sql: no such table %q", name)
}

// freeze returns an immutable copy of the table bound to epoch: the heap
// and every B-tree index frozen, hash indexes dropped. Column defs and
// the stats block are shared — both are replaced, never mutated, under
// db.mu.
func (t *TableInfo) freeze(epoch uint64) *TableInfo {
	ft := &TableInfo{
		Name:     t.Name,
		Columns:  t.Columns,
		Heap:     t.Heap.Freeze(epoch),
		Stats:    t.Stats,
		hasStats: t.hasStats,
	}
	for _, ix := range t.Indexes {
		if ix.BTree == nil { // a hash index, or a tree retired by DeferIndexes
			continue
		}
		ft.Indexes = append(ft.Indexes, &IndexInfo{
			Name:    ix.Name,
			Table:   ix.Table,
			Columns: ix.Columns,
			ColPos:  ix.ColPos,
			BTree:   ix.BTree.Freeze(epoch),
		})
	}
	return ft
}

// publishLocked freezes the catalog at the next epoch, stores the Snap
// and bumps the pool epoch (in that order: a reader pinning the new
// epoch must find a Snap matching it; AcquireSnapshot retries the
// moment between the bump and a stale load). Caller holds db.mu and has
// just committed (or restored) a consistent state.
func (db *DB) publishLocked() {
	epoch := db.pool.Epoch() + 1
	s := &Snap{
		epoch:       epoch,
		tables:      make(map[string]*TableInfo, len(db.cat.tables)),
		indexesOK:   !db.indexesDeferred,
		rollbackGen: db.rollbackGen.Load(),
	}
	for name, t := range db.cat.tables {
		s.tables[name] = t.freeze(epoch)
	}
	db.snap.Store(s)
	// What the commit orphaned stays readable for snapshots up to the
	// current epoch and is recycled once they are gone.
	db.pool.Retire(db.dead)
	db.dead = nil
	db.pool.PublishEpoch()
}

// CurrentEpoch reports the engine epoch of the most recent publish.
// Transactions compare it against their pinned snapshot's epoch to
// detect a concurrent commit before escalating to writes.
func (db *DB) CurrentEpoch() uint64 { return db.pool.Epoch() }

// AcquireSnapshot pins the current epoch and returns its snapshot. Every
// acquisition must be paired with exactly one ReleaseSnapshot; the Snap
// itself is shared between acquirers. The pin-then-verify loop closes
// the race against a concurrent publish: the pin lands either before
// the bump (the loaded Snap matches) or after both the store and the
// bump (ditto); a mismatch means the publish was mid-flight, so retry.
func (db *DB) AcquireSnapshot() *Snap {
	for {
		e := db.pool.PinEpoch()
		s := db.snap.Load()
		if s != nil && s.epoch == e {
			return s
		}
		db.pool.UnpinEpoch(e)
		runtime.Gosched()
	}
}

// ReleaseSnapshot releases one AcquireSnapshot pin, letting the pool
// collect page versions the epoch was holding alive.
func (db *DB) ReleaseSnapshot(s *Snap) {
	db.pool.UnpinEpoch(s.epoch)
}
