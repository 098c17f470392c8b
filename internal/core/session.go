// session.go is the session layer of the public API: every query enters
// the engine through a Session, which carries per-session state — a
// default per-query deadline, a query-worker override, a slow-log tag
// and a cancellation scope — and feeds per-session statistics into the
// registry. The engine keeps an implicit default session so the legacy
// Engine.Query* surface stays a thin wrapper, and a session registry so
// the server layer can list and close remote sessions.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xomatiq/internal/obs"
	"xomatiq/internal/sql"
)

// SessionOptions carries the per-session state a NewSession starts from.
// Build one with the WithSession* functional options (or literally; the
// zero value inherits every engine default).
type SessionOptions struct {
	// Deadline is the default per-query deadline: queries run under a
	// context that expires after this duration unless the caller's
	// context already carries an earlier deadline. Zero means no default.
	Deadline time.Duration
	// QueryWorkers overrides the engine's intra-query scan parallelism
	// for this session's queries (1 = serial). Zero inherits
	// Config.QueryWorkers. Results are byte-identical for any value.
	QueryWorkers int
	// MemBudget overrides the engine's hash-join memory budget for this
	// session's queries, in bytes. Zero inherits Config.QueryMemBudget.
	// Results are byte-identical for any value.
	MemBudget int64
	// Tag labels the session in listings and in the slow-query log's
	// "tag" field (e.g. a remote address or client name).
	Tag string
}

// SessionOption adjusts SessionOptions, in the same functional-option
// style as the engine's Open options.
type SessionOption func(*SessionOptions)

// WithDefaultDeadline sets the session's default per-query deadline.
func WithDefaultDeadline(d time.Duration) SessionOption {
	return func(o *SessionOptions) { o.Deadline = d }
}

// WithSessionQueryWorkers caps intra-query scan parallelism for the
// session's queries (0 = engine default, 1 = serial).
func WithSessionQueryWorkers(n int) SessionOption {
	return func(o *SessionOptions) { o.QueryWorkers = n }
}

// WithSessionMemBudget bounds hash-join build memory for the session's
// queries, in bytes (0 = engine default). Joins whose build side would
// exceed the budget spill partitions to temp files; results are
// byte-identical for any budget.
func WithSessionMemBudget(n int64) SessionOption {
	return func(o *SessionOptions) { o.MemBudget = n }
}

// WithSessionTag labels the session in listings and the slow-query log.
func WithSessionTag(tag string) SessionOption {
	return func(o *SessionOptions) { o.Tag = tag }
}

// Session is one client's query scope on an engine. Sessions are safe
// for concurrent use; closing one cancels its in-flight queries and
// fails later ones with ErrSessionClosed. Create with Engine.NewSession,
// always Close when done.
type Session struct {
	eng     *Engine
	id      uint64
	opts    SessionOptions
	created time.Time

	// ctx is the session's cancellation scope: derived from the
	// NewSession context, cancelled by Close. Every query context is
	// tied to it, so closing the session (or cancelling its parent)
	// aborts in-flight queries.
	ctx    context.Context
	cancel context.CancelFunc

	closed    atomic.Bool
	isDefault bool

	// txMu guards tx, the session's most recent transaction. One open
	// transaction per session; a finished one stays here (done=true)
	// until the next Begin replaces it. Tx.done is read without txMu so
	// Begin never takes a Tx's own mutex (which outlives operations).
	txMu sync.Mutex
	tx   *Tx

	queries  obs.Counter
	errors   obs.Counter
	rows     obs.Counter
	lastUsed atomic.Int64 // unix nanoseconds of the last query start
}

// NewSession opens a session on the engine. The context scopes the
// session's lifetime: cancelling it closes the session and aborts its
// in-flight queries. Fails with ErrTooManySessions when the
// Config.MaxSessions admission cap is reached.
func (e *Engine) NewSession(ctx context.Context, opts ...SessionOption) (*Session, error) {
	var so SessionOptions
	for _, o := range opts {
		o(&so)
	}
	return e.newSession(ctx, so, false)
}

func (e *Engine) newSession(ctx context.Context, so SessionOptions, isDefault bool) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &Session{
		eng: e, opts: so, created: time.Now(),
		ctx: sctx, cancel: cancel, isDefault: isDefault,
	}
	if !isDefault {
		e.sessMu.Lock()
		if max := e.cfg.MaxSessions; max > 0 && len(e.sessions) >= max {
			e.sessMu.Unlock()
			cancel()
			e.reg.Session.Rejected.Inc()
			return nil, ErrTooManySessions
		}
		e.nextSession++
		s.id = e.nextSession
		e.sessions[s.id] = s
		e.sessMu.Unlock()
		e.reg.Session.Opened.Inc()
		e.reg.Session.Active.Add(1)
	}
	// Parent-context cancellation closes the session (unregister + stats)
	// even if the owner never calls Close.
	context.AfterFunc(sctx, func() { s.Close() })
	return s, nil
}

// Close cancels the session's in-flight queries, removes it from the
// engine's registry and fails later queries with ErrSessionClosed.
// Idempotent; always returns nil.
func (s *Session) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	// A session never outlives its transaction: anything uncommitted
	// rolls back before the cancellation sweep.
	if tx := s.openTx(); tx != nil {
		tx.Rollback()
	}
	s.cancel()
	if !s.isDefault {
		e := s.eng
		e.sessMu.Lock()
		delete(e.sessions, s.id)
		e.sessMu.Unlock()
		e.reg.Session.Closed.Inc()
		e.reg.Session.Active.Add(-1)
	}
	return nil
}

// ID reports the session's engine-unique id (0 for the implicit default
// session).
func (s *Session) ID() uint64 { return s.id }

// Tag reports the session's label.
func (s *Session) Tag() string { return s.opts.Tag }

// Options returns a copy of the session's options.
func (s *Session) Options() SessionOptions { return s.opts }

// Engine returns the engine the session runs on (for engine-level
// operations — catalog listings, snapshots, loads).
func (s *Session) Engine() *Engine { return s.eng }

// SessionInfo is the wire-ready description of one open session
// (Engine.Sessions, the server's /v1/sessions listing).
type SessionInfo struct {
	ID      uint64    `json:"id"`
	Tag     string    `json:"tag,omitempty"`
	Created time.Time `json:"created"`
	// LastUsed is nil until the session runs its first query
	// (omitempty skips nil pointers but not zero time.Time values).
	LastUsed   *time.Time `json:"last_used,omitempty"`
	Queries    uint64     `json:"queries"`
	Errors     uint64     `json:"errors"`
	Rows       uint64     `json:"rows"`
	DeadlineMS int64      `json:"default_deadline_ms,omitempty"`
	Workers    int        `json:"query_workers,omitempty"`
}

// Info snapshots the session's descriptive state and counters.
func (s *Session) Info() SessionInfo {
	info := SessionInfo{
		ID: s.id, Tag: s.opts.Tag, Created: s.created,
		Queries: s.queries.Load(), Errors: s.errors.Load(), Rows: s.rows.Load(),
		DeadlineMS: int64(s.opts.Deadline / time.Millisecond),
		Workers:    s.opts.QueryWorkers,
	}
	if lu := s.lastUsed.Load(); lu != 0 {
		t := time.Unix(0, lu)
		info.LastUsed = &t
	}
	return info
}

// Sessions lists the open sessions, sorted by id (the implicit default
// session is not listed).
func (e *Engine) Sessions() []SessionInfo {
	e.sessMu.Lock()
	ss := make([]*Session, 0, len(e.sessions))
	for _, s := range e.sessions {
		ss = append(ss, s)
	}
	e.sessMu.Unlock()
	sort.Slice(ss, func(i, j int) bool { return ss[i].id < ss[j].id })
	infos := make([]SessionInfo, len(ss))
	for i, s := range ss {
		infos[i] = s.Info()
	}
	return infos
}

// Session looks up an open session by id (the server's
// /v1/query?session= path).
func (e *Engine) Session(id uint64) (*Session, bool) {
	e.sessMu.Lock()
	s, ok := e.sessions[id]
	e.sessMu.Unlock()
	return s, ok
}

// CloseSession closes the open session with the given id, reporting
// whether one was found.
func (e *Engine) CloseSession(id uint64) bool {
	e.sessMu.Lock()
	s, ok := e.sessions[id]
	e.sessMu.Unlock()
	if ok {
		s.Close()
	}
	return ok
}

// closeAllSessions is Engine.Close's sweep: cancel every open session so
// their queries abort before the store shuts down.
func (e *Engine) closeAllSessions() {
	e.sessMu.Lock()
	ss := make([]*Session, 0, len(e.sessions))
	for _, s := range e.sessions {
		ss = append(ss, s)
	}
	e.sessMu.Unlock()
	for _, s := range ss {
		s.Close()
	}
	if e.defaultSess != nil {
		e.defaultSess.Close()
	}
}

// queryCtx derives the context one query runs under: the caller's
// context, tied to the session's cancellation scope, with the session's
// default deadline applied when the caller set none.
func (s *Session) queryCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	qctx, cancel := context.WithCancel(ctx)
	stop := context.AfterFunc(s.ctx, cancel)
	cancelDeadline := context.CancelFunc(func() {})
	if s.opts.Deadline > 0 {
		if _, has := qctx.Deadline(); !has {
			qctx, cancelDeadline = context.WithTimeout(qctx, s.opts.Deadline)
		}
	}
	return qctx, func() {
		stop()
		cancelDeadline()
		cancel()
	}
}

// Admit reserves one slot in the engine-wide in-flight admission gate
// shared by every session (including the default one): past
// Config.MaxInflightQueries the caller is shed with ErrOverloaded
// instead of queueing. Query and ExplainAnalyze admit themselves; the
// method is exported so serving layers can route other session-scoped
// work (and load tests) through the same gate. The returned release
// must be called exactly once when the work finishes.
func (s *Session) Admit() (release func(), err error) {
	if s.closed.Load() {
		return nil, ErrSessionClosed
	}
	sm := &s.eng.reg.Session
	sm.Inflight.Add(1)
	if max := s.eng.cfg.MaxInflightQueries; max > 0 && sm.Inflight.Load() > int64(max) {
		sm.Inflight.Add(-1)
		sm.Shed.Inc()
		return nil, ErrOverloaded
	}
	return func() { sm.Inflight.Add(-1) }, nil
}

// observe feeds one finished query into the session counters.
func (s *Session) observe(res *Result, err error) {
	s.queries.Inc()
	s.lastUsed.Store(time.Now().UnixNano())
	if err != nil {
		s.errors.Inc()
		return
	}
	s.rows.Add(uint64(len(res.Rows)))
}

// Query parses and runs a XomatiQ query on the session: the caller's
// context is tied to the session's cancellation scope and default
// deadline, the session's worker override applies, and the result is
// wire-serializable via Result.JSON.
// Outside a transaction each query pins a per-statement snapshot of the
// current epoch, so it never blocks behind (or observes a torn state of)
// a concurrent load, and sees committed state only. With a transaction
// open the query joins it and sees the transaction's stable snapshot
// plus its own writes.
func (s *Session) Query(ctx context.Context, src string) (*Result, error) {
	res, _, err := s.query(ctx, src, false)
	return res, err
}

// ExplainAnalyze runs the query on the session — inside its open
// transaction, if any, exactly as Query would — and renders the executed
// plan with per-operator actuals (see Engine.ExplainAnalyze).
func (s *Session) ExplainAnalyze(ctx context.Context, src string) (string, error) {
	_, report, err := s.query(ctx, src, true)
	return report, err
}

// query routes one statement: through the session's open transaction,
// or against the published snapshot.
func (s *Session) query(ctx context.Context, src string, analyze bool) (*Result, string, error) {
	view, release, err := s.view()
	if err != nil {
		return nil, "", err
	}
	defer release()
	return s.run(ctx, src, view, analyze)
}

// view picks the view the session's next statement reads: the open
// transaction's (see Tx.view), or else the published snapshot (nil).
// release must follow the statement.
func (s *Session) view() (view *sql.Snap, release func(), err error) {
	if tx := s.openTx(); tx != nil {
		return tx.view()
	}
	return nil, func() {}, nil
}

// run is the one query path under every entry point: admit, derive the
// query context, plan (cache-first), execute against view (nil: the
// published snapshot) with the session's overrides, observe. With
// analyze set the execution is traced and rendered as the EXPLAIN
// ANALYZE report; otherwise a trace is kept only for the slow-query log.
func (s *Session) run(ctx context.Context, src string, view *sql.Snap, analyze bool) (res *Result, report string, err error) {
	release, err := s.Admit()
	if err != nil {
		return nil, "", err
	}
	defer release()
	defer func() { s.observe(res, err) }()
	ctx, cancel := s.queryCtx(ctx)
	defer cancel()
	e := s.eng
	// An already-expired context fails fast: small queries can otherwise
	// finish between the executor's periodic cancellation polls.
	if err := ctx.Err(); err != nil {
		e.reg.Query.Queries.Inc()
		e.reg.Query.Errors.Inc()
		return nil, "", err
	}
	start := time.Now()
	entry, cached, err := e.plan(src)
	if err != nil {
		e.reg.Query.Queries.Inc()
		e.reg.Query.Errors.Inc()
		return nil, "", err
	}
	// The per-query trace is allocated ONLY when EXPLAIN ANALYZE or the
	// slow-query log might need it; the common path keeps tracing nil
	// all the way down.
	var qt *obs.QueryTrace
	if analyze || e.cfg.SlowQueryThreshold > 0 {
		qt = obs.NewQueryTrace(true)
	}
	res, err = e.execPlan(ctx, entry, sql.ExecOpts{
		Trace: qt, Workers: s.opts.QueryWorkers, MemBudget: s.opts.MemBudget, Snap: view,
	})
	elapsed := time.Since(start)
	e.observeQuery(src, s.opts.Tag, cached, qt, res, err, elapsed)
	if err != nil || !analyze {
		return res, "", err
	}
	cacheState := "miss"
	if cached {
		cacheState = "hit"
	}
	total := fmt.Sprintf("total: %d rows in %s (mode=%s, plan cache %s)",
		len(res.Rows), elapsed.Round(time.Microsecond), res.Mode, cacheState)
	if res.Mode == ModeNative {
		return res, fmt.Sprintf("native evaluation (no single-SELECT translation)\n%s", total), nil
	}
	return res, "SQL: " + res.SQL + "\nplan:\n  " +
		strings.ReplaceAll(qt.Render(true), "\n", "\n  ") + "\n" + total, nil
}

// Explain translates the query and renders the plan without executing
// it (see Engine.Explain): the plan Query would run on the session now,
// drawn from the plan cache against the same view — inside the open
// transaction, if any — with the session's overrides.
func (s *Session) Explain(src string) (string, error) {
	if s.closed.Load() {
		return "", ErrSessionClosed
	}
	view, release, err := s.view()
	if err != nil {
		return "", err
	}
	defer release()
	e := s.eng
	entry, _, err := e.plan(src)
	if err != nil {
		return "", err
	}
	if entry.unsupported {
		return "native evaluation (no single-SELECT translation)", nil
	}
	plan, err := e.db.Explain(entry.tr.SQL, sql.ExecOpts{
		Workers: s.opts.QueryWorkers, MemBudget: s.opts.MemBudget, Snap: view,
	})
	if err != nil {
		return "", err
	}
	return "SQL: " + entry.tr.SQL + "\nplan:\n  " + strings.ReplaceAll(plan, "\n", "\n  "), nil
}
