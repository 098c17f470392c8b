// tx.go is the explicit transaction API on top of MVCC snapshot reads.
// Session.Begin pins the engine epoch current at that moment: every read
// inside the transaction sees that one stable snapshot, regardless of
// how many loads commit concurrently. The first write escalates the
// transaction to the engine's single-writer token (failing fast with
// ErrTxConflict if another writer holds it, or if anything committed
// since the snapshot was pinned — first committer wins) and opens one
// relational batch that stays open until Commit makes every write of the
// transaction durable atomically, or Rollback discards them all.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"xomatiq/internal/hounds"
	"xomatiq/internal/sql"
)

// TxOptions tunes a transaction at Begin.
type TxOptions struct {
	// ReadOnly refuses escalation: Harness/Update inside the transaction
	// fail with ErrTxReadOnly. A read-only transaction is purely a pinned
	// snapshot — it can never conflict and holds no writer token.
	ReadOnly bool
}

// txLoadState accumulates the side effects a load produces inside an
// open transaction batch, deferred until Commit: change triggers (bus
// subscribers must not observe uncommitted changes) and the set of
// databases loaded (their optimizer statistics refresh after the batch
// commits).
type txLoadState struct {
	triggers []hounds.Trigger
	dbs      map[string]bool
}

// Tx is an explicit transaction on a session: a pinned snapshot for
// reads, escalating to the single-writer token on the first write.
// Obtain one with Session.Begin; exactly one of Commit or Rollback must
// be called (Session.Close rolls back an open transaction). A Tx is safe
// for concurrent use; its operations serialize against each other, so a
// Commit waits for the transaction's in-flight queries.
type Tx struct {
	sess *Session
	opts TxOptions

	// mu is held across every whole operation (Query, Harness, Update,
	// Commit, Rollback): the snapshot pin cannot be released while a
	// query of this transaction still reads through it.
	mu        sync.Mutex
	snap      *sql.Snap
	escalated bool         // holds the writer token with an open batch
	st        *txLoadState // deferred load side effects; nil until escalated

	// done flips exactly once, at Commit or Rollback. Atomic so
	// Session.Begin and query routing read it without mu.
	done atomic.Bool
}

// Begin opens a read-write transaction on the session (one at a time per
// session; a second Begin fails with ErrTxActive until the first commits
// or rolls back).
func (s *Session) Begin(ctx context.Context) (*Tx, error) {
	return s.BeginTx(ctx, TxOptions{})
}

// BeginTx is Begin with options. The returned transaction's reads all
// see the engine state as of this call. Fails with ErrOverloaded past
// the Config.MaxOpenTx admission cap.
func (s *Session) BeginTx(ctx context.Context, opts TxOptions) (*Tx, error) {
	if s.closed.Load() {
		return nil, ErrSessionClosed
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	s.txMu.Lock()
	defer s.txMu.Unlock()
	if s.tx != nil && !s.tx.done.Load() {
		return nil, ErrTxActive
	}
	e := s.eng
	openTx := &e.reg.Session.OpenTx
	openTx.Add(1)
	if max := e.cfg.MaxOpenTx; max > 0 && openTx.Load() > int64(max) {
		openTx.Add(-1)
		return nil, ErrOverloaded
	}
	tx := &Tx{sess: s, opts: opts, snap: e.db.AcquireSnapshot()}
	s.tx = tx
	return tx, nil
}

// openTx returns the session's open transaction, or nil.
func (s *Session) openTx() *Tx {
	s.txMu.Lock()
	defer s.txMu.Unlock()
	if s.tx != nil && !s.tx.done.Load() {
		return s.tx
	}
	return nil
}

// Tx returns the session's open transaction, or nil when none is open.
// Serving layers use it to route per-session COMMIT/ROLLBACK verbs.
func (s *Session) Tx() *Tx { return s.openTx() }

// Snapshot reports the engine epoch the transaction's reads are pinned
// to (diagnostics).
func (tx *Tx) Snapshot() uint64 { return tx.snap.Epoch() }

// ReadOnly reports whether the transaction refuses writes.
func (tx *Tx) ReadOnly() bool { return tx.opts.ReadOnly }

// Query runs a XomatiQ query inside the transaction: against the pinned
// snapshot before the first write, against the transaction's own open
// batch after it (reads see the transaction's writes, still isolated
// from everyone else's).
func (tx *Tx) Query(ctx context.Context, src string) (*Result, error) {
	view, release, err := tx.view()
	if err != nil {
		return nil, err
	}
	defer release()
	res, _, err := tx.sess.run(ctx, src, view, false)
	return res, err
}

// view holds the transaction for one statement and picks the view it
// reads: the pinned snapshot, or once escalated the writer's BatchView.
// release lets the transaction go.
func (tx *Tx) view() (view *sql.Snap, release func(), err error) {
	tx.mu.Lock()
	if tx.done.Load() {
		tx.mu.Unlock()
		return nil, nil, ErrTxClosed
	}
	if tx.escalated {
		return tx.sess.eng.db.BatchView(), tx.mu.Unlock, nil
	}
	return tx.snap, tx.mu.Unlock, nil
}

// escalateLocked acquires the write half of the transaction on its first
// write: the single-writer token (non-blocking — losing the race is
// ErrTxConflict, not a queue) and one open relational batch. The
// snapshot must still be the current epoch: anything committed since
// Begin conflicts, because this transaction's writes would be based on a
// state that no longer exists (first committer wins). Caller holds
// tx.mu.
func (tx *Tx) escalateLocked() error {
	if tx.escalated {
		return nil
	}
	if tx.opts.ReadOnly {
		return ErrTxReadOnly
	}
	e := tx.sess.eng
	if !e.tryAcquireWriter() {
		return fmt.Errorf("%w: another writer holds the warehouse", ErrTxConflict)
	}
	if cur := e.db.CurrentEpoch(); cur != tx.snap.Epoch() {
		e.releaseWriter()
		return fmt.Errorf("%w: warehouse changed since the transaction began (epoch %d, now %d)",
			ErrTxConflict, tx.snap.Epoch(), cur)
	}
	if err := e.db.Begin(); err != nil {
		e.releaseWriter()
		return err
	}
	tx.st = &txLoadState{dbs: map[string]bool{}}
	tx.escalated = true
	return nil
}

// Harness performs a full load of the database inside the transaction
// (see Engine.HarnessContext). The load's chunks join the transaction's
// single batch: invisible to every other session until Commit. A failed
// load aborts the whole transaction (rolled back; the error reports
// both).
func (tx *Tx) Harness(ctx context.Context, dbName string) (int, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done.Load() {
		return 0, ErrTxClosed
	}
	if err := tx.escalateLocked(); err != nil {
		return 0, err
	}
	n, err := tx.sess.eng.harnessContext(ctx, dbName, tx.st)
	if err != nil {
		return 0, errors.Join(err, tx.rollbackLocked())
	}
	return n, nil
}

// Update fetches the database's source, diffs, and applies the delta
// inside the transaction (see Engine.UpdateContext). Like Harness, a
// failed delta aborts the whole transaction.
func (tx *Tx) Update(ctx context.Context, dbName string) (hounds.ChangeSet, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done.Load() {
		return hounds.ChangeSet{}, ErrTxClosed
	}
	if err := tx.escalateLocked(); err != nil {
		return hounds.ChangeSet{}, err
	}
	cs, err := tx.sess.eng.updateContext(ctx, dbName, tx.st)
	if err != nil {
		return cs, errors.Join(err, tx.rollbackLocked())
	}
	return cs, nil
}

// Commit makes the transaction's writes durable in one atomic batch,
// refreshes optimizer statistics over the loaded databases, fires the
// deferred change triggers, and releases the snapshot pin and writer
// token. A read-only (never escalated) transaction just unpins. After
// Commit the transaction is closed; a failed commit rolls back.
func (tx *Tx) Commit() error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if !tx.done.CompareAndSwap(false, true) {
		return ErrTxClosed
	}
	e := tx.sess.eng
	var err error
	if tx.escalated {
		err = e.commitTxBatch(tx.st)
	}
	e.db.ReleaseSnapshot(tx.snap)
	e.reg.Session.OpenTx.Add(-1)
	return err
}

// Rollback discards the transaction's writes and releases its snapshot
// pin and writer token. Rolling back a transaction that never wrote is
// free. Idempotent in effect: a second call reports ErrTxClosed.
func (tx *Tx) Rollback() error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	return tx.rollbackLocked()
}

func (tx *Tx) rollbackLocked() error {
	if !tx.done.CompareAndSwap(false, true) {
		return ErrTxClosed
	}
	e := tx.sess.eng
	var err error
	if tx.escalated {
		// The store's dictionaries ran ahead with the discarded writes.
		err = errors.Join(e.db.Rollback(), e.store.Reload())
		e.releaseWriter()
	}
	e.db.ReleaseSnapshot(tx.snap)
	e.reg.Session.OpenTx.Add(-1)
	return err
}

// commitTxBatch finishes an escalated transaction: commit the open
// batch, refresh stats, fire deferred triggers, release the writer
// token. A commit failure already rolled the batch back inside the sql
// layer, so only the store's dictionaries need reloading.
func (e *Engine) commitTxBatch(st *txLoadState) error {
	defer e.releaseWriter()
	if err := e.db.Commit(); err != nil {
		return errors.Join(err, e.store.Reload())
	}
	var err error
	if len(st.dbs) > 0 {
		if aerr := e.store.AnalyzeStats(); aerr != nil {
			err = aerr
		}
	}
	for _, tr := range st.triggers {
		e.bus.Publish(tr)
	}
	return err
}
