package sql

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"xomatiq/internal/index/btree"
	"xomatiq/internal/obs"
	"xomatiq/internal/storage/bufpool"
	"xomatiq/internal/storage/disk"
	"xomatiq/internal/storage/heap"
	"xomatiq/internal/storage/wal"
	"xomatiq/internal/value"
)

// Options tune a DB instance.
type Options struct {
	// PoolPages is the buffer pool capacity in pages (default 4096,
	// i.e. 32 MiB). A single transaction must not dirty more pages than
	// the pool holds.
	PoolPages int
	// WALSoftLimit triggers a checkpoint once the log exceeds this many
	// bytes at a statement boundary (default 32 MiB).
	WALSoftLimit int64
	// FS supplies the file implementation backing the data file and the
	// WAL. Nil means the real filesystem. Crash-recovery tests inject a
	// faultfs.FS here to exercise I/O-error and power-cut paths.
	FS disk.FS
	// QueryWorkers caps intra-query parallelism: sequential scans over
	// large heaps fan out across up to this many goroutines (default
	// GOMAXPROCS). 1 forces every scan serial; results are byte-identical
	// either way.
	QueryWorkers int
	// QueryMemBudget bounds the memory a hash join may hold for its
	// build side, in bytes (0 = unlimited). When the estimated resident
	// build size crosses the budget, overflowing partitions spill their
	// (key, row) streams to temp files beside the data file and are
	// reloaded per-partition at probe time. Results are byte-identical
	// for any budget.
	QueryMemBudget int64
	// Metrics is the registry the buffer pool, WAL and executor feed.
	// Nil gets a private registry, so instrumentation is always live
	// (plain atomics) and callers that want the numbers share one
	// registry across layers.
	Metrics *obs.Registry
}

func (o *Options) fill() {
	if o.PoolPages == 0 {
		o.PoolPages = 4096
	}
	if o.WALSoftLimit == 0 {
		o.WALSoftLimit = 32 << 20
	}
	if o.FS == nil {
		o.FS = disk.OS{}
	}
	if o.QueryWorkers == 0 {
		o.QueryWorkers = runtime.GOMAXPROCS(0)
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
}

// DB is an embedded relational database: one data file plus one WAL.
// It is safe for concurrent use; writes are serialised.
type DB struct {
	mu   sync.RWMutex
	path string
	mgr  *disk.Manager
	pool *bufpool.Pool
	log  *wal.Log
	cat  *catalog
	catH *heap.Heap

	opts      Options
	reg       *obs.Registry // == opts.Metrics; the executor's handle
	spillSeq  atomic.Uint64 // join-spill temp-file name sequence
	nextTxn   uint64
	inBatch   bool
	batchTxn  uint64
	recovered bool // true when Open replayed a WAL

	// syncOnCommit fsyncs the WAL at every commit: set by Open, cleared
	// by OpenAsync, which trades the most recent commits for load speed.
	syncOnCommit bool

	// indexesDeferred suspends secondary-index maintenance during a bulk
	// load: inserts touch only the heaps, queries fall back to sequential
	// scans, and ResumeIndexes rebuilds every index from sorted runs. The
	// durable mgr.IndexesStale flag is raised for the whole window so a
	// crash mid-load rebuilds on the next open. The old trees are retired
	// when the window opens (their IndexInfo.BTree is nil inside it), so
	// the rebuild reuses their pages.
	indexesDeferred bool

	// dead collects the pages that the open transaction leaves without an
	// owner: dropped heaps and trees, superseded trees. The publish that
	// follows its commit retires them (publishLocked); a rollback forgets
	// them, because it brings their owners back.
	dead []disk.PageID

	// snap is the currently published snapshot (see snapshot.go); replaced
	// under db.mu at every commit, read lock-free by snapshot queries.
	snap atomic.Pointer[Snap]
	// readGate excludes snapshot readers from the rollback window where
	// live frames are discarded and replayed (mid-replay pages are torn).
	// Readers hold it shared per statement; only rollbackLocked takes it
	// exclusively — commits never block readers.
	readGate sync.RWMutex
	// rollbackGen counts rollbacks. Published snapshots from an older
	// generation stop using their frozen B-trees (rollback may have
	// discarded never-flushed index pages their anchors reach).
	rollbackGen atomic.Uint64
}

// Result reports the effect of a non-query statement.
type Result struct {
	RowsAffected int
}

// Rows is a fully materialised query result.
type Rows struct {
	Columns []string
	Rows    []value.Tuple
}

// Open opens (or creates) a database at path; the WAL lives at path+".wal".
func Open(path string, opts Options) (*DB, error) {
	return open(path, opts, true)
}

// OpenAsync opens a database whose commits do not fsync the WAL. Intended
// for benchmarks and bulk rebuilds where the warehouse can be re-harnessed.
func OpenAsync(path string, opts Options) (*DB, error) {
	return open(path, opts, false)
}

func open(path string, opts Options, syncOnCommit bool) (*DB, error) {
	opts.fill()
	mgr, err := disk.OpenFS(opts.FS, path)
	if err != nil {
		return nil, err
	}
	log, err := wal.OpenFS(opts.FS, path+".wal")
	if err != nil {
		mgr.Close()
		return nil, err
	}
	db := &DB{
		path: path,
		mgr:  mgr,
		pool: bufpool.New(mgr, opts.PoolPages),
		log:  log,
		cat:  newCatalog(),
		opts: opts,
		reg:  opts.Metrics,

		syncOnCommit: syncOnCommit,
	}
	db.pool.BindMetrics(&db.reg.Pool)
	log.SetMetrics(&db.reg.WAL)
	db.pool.SetNoSteal(true)

	// Crash recovery: replay committed WAL ops onto the checkpointed
	// data file, then checkpoint and start clean. Indexes are rebuilt
	// below because index pages are not logged.
	if log.Size() > 0 {
		ops, err := wal.CommittedOpsFS(opts.FS, path+".wal")
		if err != nil {
			db.closeFiles()
			return nil, fmt.Errorf("sql: recovery scan: %w", err)
		}
		if len(ops) > 0 {
			// Replay advances heaps past the on-disk index anchors, and
			// anchors are only re-persisted by loadCatalog's rebuild
			// checkpoint. Raise the stale flag first: if we die between
			// truncating the WAL and that checkpoint, the next open must
			// not trust the anchors. The flag write becomes durable in
			// the pool flush below, before the WAL is truncated.
			if err := mgr.SetIndexesStale(true); err != nil {
				db.closeFiles()
				return nil, err
			}
		}
		for _, op := range ops {
			if err := mgr.EnsureAllocated(disk.PageID(op.Page)); err != nil {
				db.closeFiles()
				return nil, fmt.Errorf("sql: recovery extend: %w", err)
			}
		}
		if err := heap.Replay(db.pool, ops); err != nil {
			db.closeFiles()
			return nil, fmt.Errorf("sql: recovery replay: %w", err)
		}
		if err := db.pool.Flush(); err != nil {
			db.closeFiles()
			return nil, err
		}
		if err := log.Truncate(); err != nil {
			db.closeFiles()
			return nil, err
		}
		db.recovered = len(ops) > 0
	}

	rebuild := db.recovered || mgr.IndexesStale()
	if err := db.loadCatalog(rebuild); err != nil {
		db.closeFiles()
		return nil, err
	}
	db.publishLocked()
	if mgr.IndexesStale() {
		// The rebuild checkpoint inside loadCatalog made the fresh
		// anchors durable; the flag can come down. Losing this write
		// merely costs a redundant rebuild on the next open.
		if err := mgr.SetIndexesStale(false); err != nil {
			db.closeFiles()
			return nil, err
		}
	}
	return db, nil
}

func (db *DB) closeFiles() {
	db.log.Close()
	db.mgr.Close()
}

// Recovered reports whether Open replayed a WAL (i.e. the previous
// process crashed or was killed after unsynced work).
func (db *DB) Recovered() bool { return db.recovered }

// loadCatalog opens (or initialises) the catalog heap at page 1 and
// materialises table and index state. With rebuild set, B-tree indexes
// are reconstructed from heap contents instead of reopened from their
// persisted anchors — required after WAL replay (recovery or rollback),
// because index pages are not logged.
//
// It also derives the free list, which the file does not store: every
// page the catalog does not reach is free. When rebuilding, that is
// settled before the index pass — no old tree survives it, so only the
// heaps count and the new trees go into the pages of the old — otherwise
// after it, once the trees that were reopened have been walked.
func (db *DB) loadCatalog(rebuild bool) error {
	const catalogFirstPage = disk.PageID(1)
	if db.mgr.NumPages() <= 1 {
		// Fresh database: create the catalog heap and checkpoint so the
		// fixed page assignment is durable.
		h, err := heap.Create(db.pool, db.log, 0)
		if err != nil {
			return err
		}
		if h.FirstPage() != catalogFirstPage {
			return fmt.Errorf("sql: catalog heap landed on page %d", h.FirstPage())
		}
		db.catH = h
		if err := db.log.Append(wal.Record{Txn: 0, Op: wal.OpCommit}); err != nil {
			return err
		}
		return db.checkpointLocked()
	}
	h, err := heap.Open(db.pool, db.log, catalogFirstPage)
	if err != nil {
		return fmt.Errorf("sql: open catalog: %w", err)
	}
	db.catH = h

	// First pass: tables. Second pass: indexes and statistics rows (they
	// reference tables).
	type pendingIndex struct {
		tup value.Tuple
		rid heap.RID
	}
	var pend []pendingIndex
	var pendStats []pendingIndex
	err = h.Scan(func(rid heap.RID, rec []byte) bool {
		tup, derr := value.DecodeTuple(rec)
		if derr != nil {
			err = derr
			return false
		}
		switch tup[0].Text() {
		case "T":
			name, first, cols, derr := decodeTableRow(tup)
			if derr != nil {
				err = derr
				return false
			}
			th, derr := heap.Open(db.pool, db.log, first)
			if derr != nil {
				err = derr
				return false
			}
			db.cat.tables[strings.ToLower(name)] = &TableInfo{
				Name: name, Columns: cols, Heap: th, rid: rid,
			}
		case "I":
			pend = append(pend, pendingIndex{tup, rid})
		case "S":
			pendStats = append(pendStats, pendingIndex{tup, rid})
		}
		return true
	})
	if err != nil {
		return err
	}
	for _, p := range pendStats {
		tbl, st, derr := decodeStatsRow(p.tup)
		if derr != nil {
			return derr
		}
		t, ok := db.cat.tables[strings.ToLower(tbl)]
		if !ok || len(st.Cols) != len(t.Columns) {
			// Orphaned or shape-mismatched stats (table dropped or altered
			// under an older binary): stale estimates are worse than none.
			continue
		}
		t.Stats = st
		t.statsRID = p.rid
		t.hasStats = true
	}
	if rebuild {
		if err := db.sweepFreeLocked(); err != nil {
			return err
		}
	}
	var heal []*IndexInfo
	for _, p := range pend {
		name, tbl, anchor, cols, derr := decodeIndexRow(p.tup)
		if derr != nil {
			return derr
		}
		t, derr := db.cat.table(tbl)
		if derr != nil {
			return fmt.Errorf("sql: index %q references missing table: %w", name, derr)
		}
		ix := &IndexInfo{Name: name, Table: t.Name, Columns: cols, rid: p.rid}
		for _, c := range cols {
			pos := t.ColIndex(c)
			if pos < 0 {
				return fmt.Errorf("sql: index %q references missing column %q", name, c)
			}
			ix.ColPos = append(ix.ColPos, pos)
		}
		t.Indexes = append(t.Indexes, ix)
		db.cat.indexes[strings.ToLower(name)] = ix
		if rebuild {
			continue
		}
		if anchor >= 0 {
			ix.BTree, _ = btree.Open(db.pool, disk.PageID(anchor))
		}
		if ix.BTree == nil {
			// The anchor names a page that does not hold a tree — the
			// signature of an interrupted rollback or recovery whose
			// rebuilt anchors never reached disk. Indexes are derived
			// data: rebuild from the heap instead of refusing to open
			// the database.
			heal = append(heal, ix)
		}
	}
	if rebuild {
		if err := db.rebuildIndexesLocked(); err != nil {
			return err
		}
	}
	for _, ix := range heal {
		if err := db.buildTrees(db.cat.tables[strings.ToLower(ix.Table)], ix); err != nil {
			return err
		}
		if err := db.rewriteIndexRow(ix); err != nil {
			return err
		}
	}
	if !rebuild {
		if err := db.sweepFreeLocked(); err != nil {
			return err
		}
	}
	if rebuild || len(heal) > 0 {
		// Persist rebuilt anchors and start from a clean checkpoint.
		if err := db.log.Append(wal.Record{Txn: 0, Op: wal.OpCommit}); err != nil {
			return err
		}
		return db.checkpointLocked()
	}
	return nil
}

// eachLivePage calls fn with every page the catalog reaches and a name
// for what owns it: the catalog heap, each table's heap, each B-tree's
// anchor and nodes.
func (db *DB) eachLivePage(fn func(owner string, id disk.PageID)) error {
	for _, id := range db.catH.PageIDs() {
		fn("catalog", id)
	}
	for _, t := range db.cat.tables {
		owner := "table " + t.Name
		for _, id := range t.Heap.PageIDs() {
			fn(owner, id)
		}
		for _, ix := range t.Indexes {
			ids, err := treePages(ix)
			if err != nil {
				return err
			}
			owner := "index " + ix.Name
			for _, id := range ids {
				fn(owner, id)
			}
		}
	}
	return nil
}

// treePages lists the pages of ix's B-tree (none inside a DeferIndexes
// window).
func treePages(ix *IndexInfo) ([]disk.PageID, error) {
	if ix.BTree == nil {
		return nil, nil
	}
	ids, err := ix.BTree.Pages()
	if err != nil {
		return nil, fmt.Errorf("sql: walking index %q: %w", ix.Name, err)
	}
	return ids, nil
}

// sweepFreeLocked makes the free list everything that neither the
// catalog reaches nor a pinned reader still waits on (retired pages).
func (db *DB) sweepFreeLocked() error {
	live := make([]bool, db.mgr.NumPages())
	if err := db.eachLivePage(func(_ string, id disk.PageID) {
		if int(id) < len(live) {
			live[id] = true
		}
	}); err != nil {
		return err
	}
	return db.pool.ResetFree(live)
}

// markDead queues pages for retirement at the next publish, refusing
// ids that a damaged tree or heap chain could have produced.
func (db *DB) markDead(ids []disk.PageID) error {
	n := db.mgr.NumPages()
	for _, id := range ids {
		if id == disk.InvalidPage || int(id) >= n {
			return fmt.Errorf("sql: retiring page %d of a %d-page file", id, n)
		}
	}
	db.dead = append(db.dead, ids...)
	return nil
}

// rewriteIndexRow updates an index's catalog row in place (anchor moved).
func (db *DB) rewriteIndexRow(ix *IndexInfo) error {
	nr, err := db.catH.Update(0, ix.rid, encodeIndexRow(ix))
	if err != nil {
		return err
	}
	ix.rid = nr
	return nil
}

// Crash abandons the database without flushing the buffer pool,
// simulating a process kill. Committed transactions survive via the WAL;
// everything since the last commit is lost. Used by recovery tests.
func (db *DB) Crash() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	// The WAL buffer may hold committed-but-unsynced records when
	// commits do not sync; flush the buffer (not the pool!) so the log
	// itself is intact, as it would be after an OS-level flush.
	if err := db.log.Close(); err != nil {
		db.mgr.Close()
		return err
	}
	return db.mgr.Close()
}

// Close checkpoints and closes the database.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkpointLocked(); err != nil {
		db.closeFiles()
		return err
	}
	if err := db.log.Close(); err != nil {
		db.mgr.Close()
		return err
	}
	return db.mgr.Close()
}

// checkpointLocked flushes all dirty pages and truncates the WAL. Caller
// holds db.mu and there must be no open batch.
func (db *DB) checkpointLocked() error {
	if err := db.pool.Flush(); err != nil {
		return err
	}
	return db.log.Truncate()
}

// Checkpoint forces a checkpoint (flush + WAL truncate).
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.inBatch {
		return errors.New("sql: cannot checkpoint inside an open batch")
	}
	return db.checkpointLocked()
}

// Begin starts an explicit batch: statements until Commit share one WAL
// transaction and become durable atomically. Auto-checkpointing pauses,
// so a batch must not dirty more pages than the pool holds.
func (db *DB) Begin() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.inBatch {
		return errors.New("sql: batch already open")
	}
	db.nextTxn++
	db.batchTxn = db.nextTxn
	db.inBatch = true
	return nil
}

// Commit makes the open batch durable. When the commit record cannot be
// appended or synced the batch is rolled back instead: leaving its
// uncommitted effects in dirty frames would let a later checkpoint make
// them durable without a commit record.
func (db *DB) Commit() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.inBatch {
		return errors.New("sql: no open batch")
	}
	db.inBatch = false
	err := db.log.Append(wal.Record{Txn: db.batchTxn, Op: wal.OpCommit})
	if err == nil && db.syncOnCommit {
		err = db.log.Sync()
	}
	if err != nil {
		if rbErr := db.rollbackLocked(); rbErr != nil {
			return errors.Join(err, fmt.Errorf("sql: commit abort: %w", rbErr))
		}
		return err
	}
	if err := db.maybeCheckpointLocked(); err != nil {
		return err
	}
	db.publishLocked()
	return nil
}

// Rollback abandons the open batch: every change since the last commit
// is discarded and the database returns to its last committed state.
//
// In the no-steal/redo-only design nothing of an uncommitted
// transaction reaches the data file, so abort is: drop the dirty
// frames, then replay the committed WAL suffix onto the checkpointed
// file — exactly the path crash recovery takes — and rebuild the
// catalog and in-memory indexes from the result. Pages allocated by the
// aborted batch return to the free list when loadCatalog re-derives it.
func (db *DB) Rollback() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.inBatch {
		return errors.New("sql: no open batch")
	}
	db.inBatch = false
	return db.rollbackLocked()
}

// rollbackLocked discards everything since the last commit and restores
// the committed state, tolerating a WAL writer poisoned by an earlier
// I/O fault. Caller holds db.mu.
func (db *DB) rollbackLocked() error {
	db.dead = nil
	// Push buffered records (committed and aborted alike) to the log
	// file so the committed-ops scan sees everything appended so far. A
	// flush failure (e.g. an injected disk fault) leaves at worst a torn
	// uncommitted tail, which the scan ignores; drop the buffer so the
	// writer sheds its sticky error and recover from what reached the
	// file. (Under OpenAsync this can lose buffered commits — the
	// documented trade of async mode.)
	if err := db.log.Flush(); err != nil {
		db.log.DiscardBuffer()
	}
	ops, err := wal.CommittedOpsFS(db.opts.FS, db.path+".wal")
	if err != nil {
		return fmt.Errorf("sql: rollback scan: %w", err)
	}
	// Quiesce snapshot readers for the discard+replay window: a live
	// frame mid-replay holds the checkpoint state plus a prefix of the
	// committed ops, which a version-map miss would hand to a reader as
	// if it were a committed page. Readers hold readGate shared per
	// statement; this is the only exclusive acquisition — commits never
	// block readers. Retained page versions are untouched by the
	// discard, so pinned old-epoch snapshots stay intact throughout.
	db.readGate.Lock()
	err = func() error {
		if err := db.pool.DiscardDirty(); err != nil {
			return err
		}
		// DiscardDirty dropped unflushed index pages while the catalog's
		// anchors still name them, and the checkpoint below makes that
		// mismatch durable. Raise the header flag (durable within the
		// checkpoint's flush, before the WAL truncate) so a process death
		// anywhere before loadCatalog re-persists fresh anchors leaves a
		// file that rebuilds its indexes on the next open.
		if err := db.mgr.SetIndexesStale(true); err != nil {
			return err
		}
		for _, op := range ops {
			if err := db.mgr.EnsureAllocated(disk.PageID(op.Page)); err != nil {
				return fmt.Errorf("sql: rollback extend: %w", err)
			}
		}
		if err := heap.Replay(db.pool, ops); err != nil {
			return fmt.Errorf("sql: rollback replay: %w", err)
		}
		return nil
	}()
	// Older snapshots must stop trusting their frozen B-tree views: the
	// discard may have dropped never-flushed index pages their anchors
	// reach. Bump the generation before readers resume.
	db.rollbackGen.Add(1)
	db.readGate.Unlock()
	if err != nil {
		return err
	}
	if err := db.checkpointLocked(); err != nil {
		return err
	}
	db.cat = newCatalog()
	// loadCatalog rebuilds every index from the replayed heaps, so a
	// rollback also ends any deferred-index window.
	db.indexesDeferred = false
	if err := db.loadCatalog(true); err != nil {
		return err
	}
	if err := db.mgr.SetIndexesStale(false); err != nil {
		return err
	}
	// Publish the restored state as a fresh epoch so new snapshot readers
	// see the rebuilt catalog (with usable index anchors) immediately.
	db.publishLocked()
	return nil
}

func (db *DB) maybeCheckpointLocked() error {
	if db.inBatch {
		return nil
	}
	if db.log.Size() > db.opts.WALSoftLimit || db.pool.DirtyCount() > db.opts.PoolPages/2 {
		return db.checkpointLocked()
	}
	return nil
}

// Exec parses and runs one statement. SELECTs run too, discarding rows;
// use Query for results.
func (db *DB) Exec(src string) (Result, error) {
	stmt, err := Parse(src)
	if err != nil {
		return Result{}, err
	}
	return db.ExecStmt(stmt)
}

// ExecStmt runs a parsed statement.
func (db *DB) ExecStmt(stmt Statement) (Result, error) {
	switch s := stmt.(type) {
	case *Select:
		rows, err := db.QueryStmtOptsContext(context.Background(), s, ExecOpts{})
		if err != nil {
			return Result{}, err
		}
		return Result{RowsAffected: len(rows.Rows)}, nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	var res Result
	err := db.autocommitLocked(func(txn uint64) (err error) {
		switch s := stmt.(type) {
		case *CreateTable:
			err = db.createTable(txn, s)
		case *CreateIndex:
			err = db.createIndex(txn, s)
		case *DropTable:
			err = db.dropTable(txn, s)
		case *DropIndex:
			err = db.dropIndex(txn, s)
		case *Insert:
			res, err = db.insert(txn, s)
		case *Delete:
			res, err = db.deleteRows(txn, s)
		default:
			err = fmt.Errorf("sql: unsupported statement %T", stmt)
		}
		return err
	})
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// autocommitLocked runs one statement's writes, fn, under a transaction
// id: the open batch's, or else a fresh one that the statement commits
// alone — append the commit record, sync per policy, maybe checkpoint,
// publish the new snapshot epoch. Caller holds db.mu.
//
// A failed auto-commit statement restores the last committed state.
// Without this, a partially applied mutation — say a heap insert whose
// WAL append then failed — would sit in dirty frames and be made
// durable, unlogged, by the next checkpoint. The rollback runs only when
// the statement actually touched a page or the log; errors before the
// first mutation (missing table, bad column) return as-is. A commit whose
// record reached the file before the fault is re-derived by the rollback
// replay, so its effects survive. Inside a batch the error returns as-is
// and the batch's owner decides.
func (db *DB) autocommitLocked(fn func(txn uint64) error) error {
	if db.inBatch {
		return fn(db.batchTxn)
	}
	db.nextTxn++
	txn := db.nextTxn
	preMut, preSize := db.pool.Mutations(), db.log.Size()
	err := fn(txn)
	if err == nil {
		err = db.log.Append(wal.Record{Txn: txn, Op: wal.OpCommit})
	}
	if err == nil && db.syncOnCommit {
		err = db.log.Sync()
	}
	if err == nil {
		err = db.maybeCheckpointLocked()
	}
	if err == nil {
		db.publishLocked()
		return nil
	}
	if db.pool.Mutations() == preMut && db.log.Size() == preSize {
		return err
	}
	if rbErr := db.rollbackLocked(); rbErr != nil {
		return errors.Join(err, fmt.Errorf("sql: statement abort: %w", rbErr))
	}
	return err
}

// Query parses and runs a SELECT, returning materialised rows.
func (db *DB) Query(src string) (*Rows, error) {
	return db.QueryContext(context.Background(), src)
}

// QueryContext parses and runs a SELECT under ctx. Executor scan and
// join loops poll the context periodically, so a cancel or deadline
// aborts a long scan promptly with ctx's error instead of after
// materialising the full result.
func (db *DB) QueryContext(ctx context.Context, src string) (*Rows, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*Select)
	if !ok {
		return nil, fmt.Errorf("sql: Query requires a SELECT, got %T", stmt)
	}
	return db.QueryStmtOptsContext(ctx, sel, ExecOpts{})
}

// ExecOpts carries per-query execution overrides.
type ExecOpts struct {
	// Trace, when non-nil, collects plan lines and per-operator actuals.
	Trace *obs.QueryTrace
	// Workers overrides Options.QueryWorkers for this query when
	// positive (1 forces serial scans); 0 inherits the DB-wide setting.
	// Results are byte-identical for any value.
	Workers int
	// MemBudget overrides Options.QueryMemBudget for this query when
	// positive; 0 inherits the DB-wide setting. Results are
	// byte-identical for any value.
	MemBudget int64
	// Snap, when non-nil, is the view the query reads: a snapshot the
	// caller pinned (transaction reads; the caller owns the pin) or the
	// writer's BatchView. Nil reads the published snapshot.
	Snap *Snap
	// SnapshotRead is ignored: every query reads a snapshot.
	//
	// Deprecated: leave it unset; the published snapshot is the default.
	SnapshotRead bool
}

// QueryStmtOptsContext runs a parsed SELECT under ctx with per-query
// execution overrides (session-scoped worker caps, tracing) against one
// view (see runSelect).
func (db *DB) QueryStmtOptsContext(ctx context.Context, sel *Select, o ExecOpts) (*Rows, error) {
	return db.runSelect(ctx, sel, o, true)
}

func (db *DB) createTable(txn uint64, s *CreateTable) error {
	key := strings.ToLower(s.Name)
	if _, exists := db.cat.tables[key]; exists {
		if s.IfNotExists {
			return nil
		}
		return fmt.Errorf("sql: table %q already exists", s.Name)
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("sql: table %q has no columns", s.Name)
	}
	seen := map[string]bool{}
	for _, c := range s.Columns {
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return fmt.Errorf("sql: duplicate column %q", c.Name)
		}
		seen[lc] = true
	}
	h, err := heap.Create(db.pool, db.log, txn)
	if err != nil {
		return err
	}
	rid, err := db.catH.Insert(txn, encodeTableRow(s.Name, h.FirstPage(), s.Columns))
	if err != nil {
		return err
	}
	db.cat.tables[key] = &TableInfo{Name: s.Name, Columns: s.Columns, Heap: h, rid: rid}
	return nil
}

func (db *DB) createIndex(txn uint64, s *CreateIndex) error {
	key := strings.ToLower(s.Name)
	if _, exists := db.cat.indexes[key]; exists {
		if s.IfNotExists {
			return nil
		}
		return fmt.Errorf("sql: index %q already exists", s.Name)
	}
	t, err := db.cat.table(s.Table)
	if err != nil {
		return err
	}
	ix := &IndexInfo{Name: s.Name, Table: t.Name, Columns: s.Columns}
	for _, c := range s.Columns {
		pos := t.ColIndex(c)
		if pos < 0 {
			return fmt.Errorf("sql: index %q: no column %q in %q", s.Name, c, s.Table)
		}
		ix.ColPos = append(ix.ColPos, pos)
	}
	if err := db.buildTrees(t, ix); err != nil {
		return err
	}
	rid, err := db.catH.Insert(txn, encodeIndexRow(ix))
	if err != nil {
		return err
	}
	ix.rid = rid
	t.Indexes = append(t.Indexes, ix)
	db.cat.indexes[key] = ix
	return nil
}

func (db *DB) dropTable(txn uint64, s *DropTable) error {
	key := strings.ToLower(s.Name)
	t, exists := db.cat.tables[key]
	if !exists {
		if s.IfExists {
			return nil
		}
		return fmt.Errorf("sql: no such table %q", s.Name)
	}
	// Everything the table owns dies with it. List the pages before the
	// first catalog write: a failure up to here leaves nothing to undo.
	dead := append([]disk.PageID(nil), t.Heap.PageIDs()...)
	for _, ix := range t.Indexes {
		ids, err := treePages(ix)
		if err != nil {
			return err
		}
		dead = append(dead, ids...)
	}
	for _, ix := range t.Indexes {
		if err := db.catH.Delete(txn, ix.rid); err != nil {
			return err
		}
		delete(db.cat.indexes, strings.ToLower(ix.Name))
	}
	if t.hasStats {
		if err := db.catH.Delete(txn, t.statsRID); err != nil {
			return err
		}
	}
	if err := db.catH.Delete(txn, t.rid); err != nil {
		return err
	}
	delete(db.cat.tables, key)
	return db.markDead(dead)
}

func (db *DB) dropIndex(txn uint64, s *DropIndex) error {
	key := strings.ToLower(s.Name)
	ix, exists := db.cat.indexes[key]
	if !exists {
		if s.IfExists {
			return nil
		}
		return fmt.Errorf("sql: no such index %q", s.Name)
	}
	dead, err := treePages(ix)
	if err != nil {
		return err
	}
	if err := db.catH.Delete(txn, ix.rid); err != nil {
		return err
	}
	delete(db.cat.indexes, key)
	t, err := db.cat.table(ix.Table)
	if err == nil {
		for i, x := range t.Indexes {
			if x == ix {
				t.Indexes = append(t.Indexes[:i], t.Indexes[i+1:]...)
				break
			}
		}
	}
	return db.markDead(dead)
}

func (db *DB) insert(txn uint64, s *Insert) (Result, error) {
	t, err := db.cat.table(s.Table)
	if err != nil {
		return Result{}, err
	}
	// Column mapping: position i of a VALUES row goes to table column
	// mapping[i].
	mapping := make([]int, 0, len(t.Columns))
	if s.Columns == nil {
		for i := range t.Columns {
			mapping = append(mapping, i)
		}
	} else {
		for _, c := range s.Columns {
			pos := t.ColIndex(c)
			if pos < 0 {
				return Result{}, fmt.Errorf("sql: no column %q in %q", c, s.Table)
			}
			mapping = append(mapping, pos)
		}
	}
	emptyRow := Row{Schema: &Schema{}}
	n := 0
	for _, exprs := range s.Rows {
		if len(exprs) != len(mapping) {
			return Result{RowsAffected: n}, fmt.Errorf("sql: INSERT row has %d values, want %d", len(exprs), len(mapping))
		}
		tup := make(value.Tuple, len(t.Columns)) // unmentioned columns NULL
		for i, e := range exprs {
			v, err := Eval(e, emptyRow)
			if err != nil {
				return Result{RowsAffected: n}, err
			}
			cv, err := coerce(v, t.Columns[mapping[i]].Type)
			if err != nil {
				return Result{RowsAffected: n}, fmt.Errorf("sql: column %q: %w", t.Columns[mapping[i]].Name, err)
			}
			tup[mapping[i]] = cv
		}
		if err := db.insertTuple(txn, t, tup); err != nil {
			return Result{RowsAffected: n}, err
		}
		n++
	}
	return Result{RowsAffected: n}, nil
}

// InsertBatch bulk-appends pre-built tuples to a table, logging one WAL
// page image per filled heap page instead of one record per tuple. The
// shredder's load path feeds whole chunks through here.
func (db *DB) InsertBatch(table string, tuples []value.Tuple) error {
	if len(tuples) == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.cat.table(table)
	if err != nil {
		return err
	}
	// All records encode into one arena (the heap copies them into
	// pages, so the subslices never escape the call).
	recs := make([][]byte, len(tuples))
	arena := make([]byte, 0, 1<<16)
	for i, tup := range tuples {
		if len(tup) != len(t.Columns) {
			return fmt.Errorf("sql: tuple has %d values, table %q has %d columns", len(tup), table, len(t.Columns))
		}
		for j := range tup {
			cv, err := coerce(tup[j], t.Columns[j].Type)
			if err != nil {
				return fmt.Errorf("sql: column %q: %w", t.Columns[j].Name, err)
			}
			tup[j] = cv
		}
		start := len(arena)
		arena = tup.Encode(arena)
		recs[i] = arena[start:len(arena):len(arena)]
	}
	return db.autocommitLocked(func(txn uint64) error {
		rids, err := t.Heap.InsertBatch(txn, recs)
		if err != nil || db.indexesDeferred {
			return err
		}
		for i, rid := range rids {
			if err := db.indexTuple(t, tuples[i], rid); err != nil {
				return err
			}
		}
		return nil
	})
}

// DeferIndexes suspends secondary-index maintenance for a bulk load.
// While deferred, inserts touch only the heaps, the planner refuses
// index access paths (the indexes miss the new rows), and the durable
// stale flag guarantees a crash anywhere in the window rebuilds indexes
// on the next open. Pair with ResumeIndexes.
//
// The flag makes the current B-trees dead weight — nothing will read
// them again except snapshots already pinned — so they are retired here,
// and the load and the rebuild that follow reuse their pages instead of
// growing the file by another generation of index.
func (db *DB) DeferIndexes() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.inBatch {
		return errors.New("sql: cannot defer indexes inside an open batch")
	}
	if db.indexesDeferred {
		return nil
	}
	var trees []*IndexInfo
	var dead []disk.PageID
	for _, t := range db.cat.tables {
		for _, ix := range t.Indexes {
			ids, err := treePages(ix)
			if err != nil {
				return err
			}
			if ids != nil {
				trees = append(trees, ix)
				dead = append(dead, ids...)
			}
		}
	}
	if err := db.mgr.SetIndexesStale(true); err != nil {
		return err
	}
	if len(trees) > 0 {
		// The catalog on disk still names the old anchors. Before any of
		// their pages can be overwritten by a checkpoint, the flag that
		// says not to trust them must be on disk too.
		if err := db.mgr.Sync(); err != nil {
			return err
		}
	}
	if err := db.markDead(dead); err != nil {
		return err
	}
	db.indexesDeferred = true
	for _, ix := range trees {
		ix.BTree = nil
	}
	// Publish the window: snapshots from here on hold no tree, so with no
	// reader pinned the retired pages are free before the first insert.
	db.publishLocked()
	return nil
}

// ResumeIndexes ends a DeferIndexes window: every secondary index is
// rebuilt from its heap in sorted runs, the fresh anchors are
// checkpointed, and the durable stale flag comes down. On a rebuild
// error it falls back to the rollback path, which restores the last
// committed state with consistent indexes.
func (db *DB) ResumeIndexes() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.indexesDeferred {
		return nil
	}
	if db.inBatch {
		return errors.New("sql: cannot resume indexes inside an open batch")
	}
	db.indexesDeferred = false
	err := db.rebuildIndexesLocked()
	if err == nil {
		err = db.log.Append(wal.Record{Txn: 0, Op: wal.OpCommit})
	}
	if err == nil {
		err = db.checkpointLocked()
	}
	if err != nil {
		if rbErr := db.rollbackLocked(); rbErr != nil {
			return errors.Join(err, fmt.Errorf("sql: resume indexes abort: %w", rbErr))
		}
		return err
	}
	if err := db.mgr.SetIndexesStale(false); err != nil {
		return err
	}
	// The rebuilt anchors make indexes usable again: publish a fresh
	// epoch so snapshot queries stop falling back to sequential scans.
	db.publishLocked()
	return nil
}

// rebuildIndexesLocked reconstructs every index from heap contents, in
// deterministic (sorted table name) order so fault-injection op counts
// are reproducible.
func (db *DB) rebuildIndexesLocked() error {
	names := make([]string, 0, len(db.cat.tables))
	for name := range db.cat.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := db.cat.tables[name]
		if len(t.Indexes) == 0 {
			continue
		}
		if err := db.buildTrees(t, t.Indexes...); err != nil {
			return err
		}
		for _, ix := range t.Indexes {
			if err := db.rewriteIndexRow(ix); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildTrees builds the given indexes of a table from its heap in a
// single scan: each record is keyed once per index straight from its
// wire bytes, then each run is sorted and bottom-up bulk-loaded. Keys
// are unique (the RID is appended), so every sorted run is strictly
// ascending as BulkLoad requires. Index creation, ResumeIndexes and the
// rebuilds of recovery, rollback and a damaged anchor all build here.
func (db *DB) buildTrees(t *TableInfo, ixs ...*IndexInfo) error {
	type treeBuild struct {
		ix    *IndexInfo
		items []btree.Item
	}
	trees := make([]*treeBuild, len(ixs))
	for i, ix := range ixs {
		trees[i] = &treeBuild{ix: ix}
	}
	// Keys are encoded into a shared arena; each item's Key is a subslice
	// and its Val aliases the RID bytes the key ends with (BulkLoad copies
	// both into pages, so the aliasing never escapes). Arena growth
	// strands the old block, but earlier keys keep pointing into it.
	arena := make([]byte, 0, 1<<16)
	var serr error
	err := t.Heap.Scan(func(rid heap.RID, rec []byte) bool {
		for _, tb := range trees {
			start := len(arena)
			out, kerr := tb.ix.KeyFromRecord(arena, rec, rid)
			if kerr != nil {
				serr = kerr
				return false
			}
			arena = out
			key := arena[start:len(arena):len(arena)]
			tb.items = append(tb.items, btree.Item{Key: key, Val: key[len(key)-ridLen:]})
		}
		return true
	})
	if err != nil {
		return err
	}
	if serr != nil {
		return serr
	}
	for _, tb := range trees {
		sort.Slice(tb.items, func(i, j int) bool {
			return bytes.Compare(tb.items[i].Key, tb.items[j].Key) < 0
		})
		tr, err := btree.BulkLoad(db.pool, tb.items)
		if err != nil {
			return err
		}
		tb.ix.BTree = tr
	}
	return nil
}

// indexTuple adds one heap row to every index of its table.
func (db *DB) indexTuple(t *TableInfo, tup value.Tuple, rid heap.RID) error {
	for _, ix := range t.Indexes {
		if _, err := ix.BTree.Insert(ix.Key(tup, rid), ridBytes(rid)); err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) insertTuple(txn uint64, t *TableInfo, tup value.Tuple) error {
	rid, err := t.Heap.Insert(txn, tup.Encode(nil))
	if err != nil {
		return err
	}
	if db.indexesDeferred {
		return nil
	}
	return db.indexTuple(t, tup, rid)
}

func (db *DB) removeTuple(txn uint64, t *TableInfo, rid heap.RID, tup value.Tuple) error {
	if err := t.Heap.Delete(txn, rid); err != nil {
		return err
	}
	if db.indexesDeferred {
		return nil
	}
	for _, ix := range t.Indexes {
		if _, err := ix.BTree.Delete(ix.Key(tup, rid)); err != nil {
			return err
		}
	}
	return nil
}

// matchingRows evaluates where against the rows of t (through an index
// access path when one applies), calling fn with the rid and decoded
// tuple of each match. It walks the access decision directly — heap
// pages through ScanPage, or the index path's RIDs through Get — and
// feeds the same work counters as a SELECT scan. fn must not mutate the
// heap; callers collect rids first when they need to.
func (db *DB) matchingRows(t *TableInfo, where Expr, fn func(rid heap.RID, tup value.Tuple) error) error {
	// A minimal execState (no ctx, no workers) keeps the DML scan serial
	// and untraced while still feeding the work counters. DML reads the
	// batch it writes.
	es := &execState{reg: db.reg, snap: db.batchViewLocked()}
	a := db.accessPath(es, t, t.Name, conjuncts(where))
	visit := func(rid heap.RID, rec []byte) error {
		tup, err := value.DecodeTuple(rec)
		if err != nil {
			return err
		}
		if where != nil {
			v, err := Eval(where, Row{Schema: a.schema, Values: tup})
			if err != nil {
				return err
			}
			if !truthy(v) {
				return nil
			}
		}
		return fn(rid, tup)
	}
	if a.ix != nil {
		rids, err := a.rids(es)
		if err != nil {
			return err
		}
		for _, rid := range rids {
			rec, err := t.Heap.Get(rid)
			if err != nil {
				return err
			}
			if err := visit(rid, rec); err != nil {
				return err
			}
		}
		return nil
	}
	for id := t.Heap.FirstPage(); id != disk.InvalidPage; {
		records := 0
		var verr error
		next, _, err := t.Heap.ScanPage(id, func(rid heap.RID, rec []byte) bool {
			records++
			verr = visit(rid, rec)
			return verr == nil
		})
		if err != nil {
			return err
		}
		if verr != nil {
			return verr
		}
		es.scannedPage(records)
		id = next
	}
	return nil
}

func (db *DB) deleteRows(txn uint64, s *Delete) (Result, error) {
	t, err := db.cat.table(s.Table)
	if err != nil {
		return Result{}, err
	}
	type victim struct {
		rid heap.RID
		tup value.Tuple
	}
	var victims []victim
	if err := db.matchingRows(t, s.Where, func(rid heap.RID, tup value.Tuple) error {
		victims = append(victims, victim{rid, tup})
		return nil
	}); err != nil {
		return Result{}, err
	}
	for _, v := range victims {
		if err := db.removeTuple(txn, t, v.rid, v.tup); err != nil {
			return Result{}, err
		}
	}
	return Result{RowsAffected: len(victims)}, nil
}

// coerce converts v to the column kind, allowing the numeric/text
// conversions biological flat files need. NULL passes through.
func coerce(v value.Value, want value.Kind) (value.Value, error) {
	if v.IsNull() || v.Kind() == want {
		return v, nil
	}
	switch want {
	case value.KindInt:
		if f, ok := v.AsNumeric(); ok && f == float64(int64(f)) {
			return value.NewInt(int64(f)), nil
		}
	case value.KindFloat:
		if f, ok := v.AsNumeric(); ok {
			return value.NewFloat(f), nil
		}
	case value.KindText:
		return value.NewText(asText(v)), nil
	case value.KindBool:
		if v.Kind() == value.KindInt {
			return value.NewBool(v.Int() != 0), nil
		}
	}
	return value.Null, fmt.Errorf("cannot store %s as %s", v.Kind(), want)
}
