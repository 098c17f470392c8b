// Snapshot publication: the bridge between the buffer pool's page-version
// store (bufpool mvcc.go) and the executor. Every commit publishes a Snap
// — an immutable catalog view (frozen heaps and B-tree anchors) bound to
// the new epoch — and every SELECT resolves its tables through exactly
// one Snap: the published one by default, without holding db.mu, or the
// writer's BatchView when it must see its own open batch. Bulk loads and
// updates then commit concurrently with running scans: readers at older
// epochs see retained page versions, never a half-written page.
package sql

import "runtime"

// Snap is one view of the catalog a SELECT reads. A published Snap is
// the catalog as of an epoch, with every heap and B-tree frozen at that
// epoch; it is immutable and shared — AcquireSnapshot hands the same Snap
// to every reader of the current epoch, each holding its own epoch pin.
// The writer's BatchView is the other kind: the live catalog, read under
// db.mu.
type Snap struct {
	epoch uint64
	cat   *catalog

	// indexesOK records whether secondary indexes were consistent with
	// the heaps at publish time: during a deferred-index bulk load the
	// per-chunk snapshots carry heap rows the B-trees miss, so snapshot
	// queries at those epochs must use sequential scans.
	indexesOK bool
	// rollbackGen is the DB's rollback generation at publish time. A
	// rollback discards unflushed index pages and rebuilds trees at new
	// anchors, which can leave this snapshot's frozen tree views naming
	// pages that never reached disk; queries see the generation bump and
	// drop to sequential scans (heap pages are WAL-protected and replay
	// restores them, so heaps stay readable).
	rollbackGen uint64
	// published is what the DB's Publisher gave this publish; nil for
	// the writer's BatchView.
	published any
}

// Epoch reports the snapshot's engine epoch.
func (s *Snap) Epoch() uint64 { return s.epoch }

// Published returns the value the DB's Publisher published with this
// snapshot, or nil.
func (s *Snap) Published() any { return s.published }

// Publisher is state that the layer above keeps beside the tables and
// publishes with them: the DB calls it under db.mu, so a value is
// published by exactly the commits that make the rows it describes
// visible, and reverts with every rollback.
type Publisher interface {
	// Publish returns the value the snapshot being published carries.
	Publish() any
	// Rollback discards what changed since the last Publish.
	Rollback()
}

// SetPublisher installs p, replacing any earlier Publisher, and
// publishes a snapshot that carries its value.
func (db *DB) SetPublisher(p Publisher) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.pub = p
	db.publishLocked()
}

// freeze returns an immutable copy of the table bound to epoch: the heap
// and every B-tree index frozen. Column defs and the stats block are
// shared — both are replaced, never mutated, under db.mu.
func (t *TableInfo) freeze(epoch uint64) *TableInfo {
	ft := &TableInfo{
		Name:     t.Name,
		Columns:  t.Columns,
		Heap:     t.Heap.Freeze(epoch),
		Stats:    t.Stats,
		hasStats: t.hasStats,
	}
	for _, ix := range t.Indexes {
		if ix.BTree == nil { // a tree retired by DeferIndexes
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
		cat:         &catalog{tables: make(map[string]*TableInfo, len(db.cat.tables))},
		indexesOK:   !db.indexesDeferred,
		rollbackGen: db.rollbackGen.Load(),
	}
	if db.pub != nil {
		s.published = db.pub.Publish()
	}
	for name, t := range db.cat.tables {
		s.cat.tables[name] = t.freeze(epoch)
	}
	db.snap.Store(s)
	// What the commit orphaned stays readable for snapshots up to the
	// current epoch and is recycled once they are gone.
	db.pool.Retire(db.dead)
	db.dead = nil
	db.pool.PublishEpoch()
}

// BatchView returns the writer's view of its open batch, for
// ExecOpts.Snap: the live catalog — live heaps and trees — with indexes
// usable unless a DeferIndexes window is open. A
// statement run against it holds db.mu shared and resolves the catalog
// when it starts, so the view never goes stale; it pins no epoch and is
// never released. Only the writer needs it: every other reader sees
// committed state through the published snapshot.
func (db *DB) BatchView() *Snap { return batchView }

// batchView is the token BatchView hands out; QueryStmtOptsContext knows
// it by identity and swaps in batchViewLocked.
var batchView = &Snap{}

// batchViewLocked resolves the live catalog for one statement or DML
// walk. Caller holds db.mu.
func (db *DB) batchViewLocked() *Snap {
	return &Snap{cat: db.cat, indexesOK: !db.indexesDeferred, rollbackGen: db.rollbackGen.Load()}
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
