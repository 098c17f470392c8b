// Package core implements the XomatiQ engine: the warehouse lifecycle
// (Data Hounds harnessing, incremental updates, triggers) and the query
// pipeline (XomatiQ query -> XQ2SQL -> relational engine -> tagger, with
// a native-XML fallback for shapes outside the translatable subset).
// This is the component stack of the paper's Figure 1 plus §3.
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"xomatiq/internal/dtd"
	"xomatiq/internal/hounds"
	"xomatiq/internal/nativexml"
	"xomatiq/internal/obs"
	"xomatiq/internal/shred"
	"xomatiq/internal/sql"
	"xomatiq/internal/storage/disk"
	"xomatiq/internal/xmldoc"
	"xomatiq/internal/xq"
	"xomatiq/internal/xq2sql"
)

// Config tunes an Engine.
type Config struct {
	// Path is the warehouse database file; its WAL lives beside it.
	Path string
	// PoolPages is the buffer pool capacity (default 4096 pages).
	PoolPages int
	// LoadWorkers is the harness ingest parallelism: the number of
	// goroutines validating and shredding documents concurrently.
	// 0 means runtime.GOMAXPROCS(0). Any value produces byte-identical
	// warehouse contents; only the wall clock changes.
	LoadWorkers int
	// QueryWorkers caps intra-query scan parallelism: large sequential
	// scans fan out across up to this many goroutines. 0 means
	// runtime.GOMAXPROCS(0); 1 forces serial scans. Any value produces
	// byte-identical query results; only the wall clock changes.
	QueryWorkers int
	// QueryMemBudget bounds the memory a hash join may hold for its
	// build side, in bytes (0 = unlimited). Overflowing partitions
	// spill to temp files beside the warehouse and reload at probe
	// time; results are byte-identical for any budget.
	QueryMemBudget int64
	// FS is the filesystem the warehouse lives on; nil means the real
	// disk. Fault-injection tests substitute a faultfs.FS.
	FS disk.FS
	// SlowQueryThreshold enables the slow-query log: queries whose
	// end-to-end latency reaches the threshold are written to
	// SlowQueryLog as JSON lines, with per-operator actuals. Zero
	// disables the log (and the per-query trace allocation with it).
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives the slow-query JSON lines; nil means
	// os.Stderr. Writes are serialised by the engine.
	SlowQueryLog io.Writer
	// MaxSessions caps the number of concurrently open sessions;
	// NewSession past the cap fails with ErrTooManySessions. 0 means
	// unlimited. The implicit default session does not count.
	MaxSessions int
	// MaxInflightQueries caps concurrently executing queries across all
	// sessions (including the implicit default session); queries past
	// the cap are shed with ErrOverloaded instead of queueing. 0 means
	// unlimited.
	MaxInflightQueries int
	// MaxOpenTx caps concurrently open transactions across all sessions;
	// Session.Begin past the cap fails with ErrOverloaded. 0 means
	// unlimited.
	MaxOpenTx int
}

// NewConfig returns the default configuration for a warehouse at path.
func NewConfig(path string) Config {
	return Config{Path: path}
}

// Engine is a XomatiQ warehouse instance.
type Engine struct {
	cfg   Config
	db    *sql.DB
	store *shred.Store
	bus   *hounds.Bus
	plans *planCache
	reg   *obs.Registry // engine-wide metrics; shared with the sql layer

	// writerTok is the engine's single-writer token: every mutation of
	// the warehouse — autocommit loads (Harness/Update), source
	// registration, and escalated transactions — holds it for the
	// mutation's duration. Autocommit paths acquire it blocking
	// (context-aware); a transaction's first write try-acquires it and
	// fails fast with ErrTxConflict. Capacity 1: send = acquire,
	// receive = release.
	writerTok chan struct{}

	mu      sync.Mutex
	sources map[string]*sourceReg
	// txLoad, when non-nil, marks loads running inside an escalated
	// transaction's open batch: the pipeline skips per-chunk commits and
	// post-load stats, and triggers are deferred into it until the
	// transaction commits. Guarded by e.mu (set only by load paths,
	// which hold it).
	txLoad *txLoadState

	statsMu  sync.Mutex
	lastLoad LoadStats

	slowMu  sync.Mutex
	slowLog io.Writer

	sessMu      sync.Mutex
	sessions    map[uint64]*Session
	nextSession uint64
	defaultSess *Session
}

type sourceReg struct {
	source      hounds.Source
	transformer hounds.Transformer
	lastVersion string
}

// Open opens (or creates) a warehouse.
func Open(cfg Config) (*Engine, error) {
	reg := obs.NewRegistry()
	opts := sql.Options{
		PoolPages: cfg.PoolPages, QueryWorkers: cfg.QueryWorkers,
		QueryMemBudget: cfg.QueryMemBudget,
		FS:             cfg.FS, Metrics: reg,
	}
	db, err := sql.Open(cfg.Path, opts)
	if err != nil {
		return nil, err
	}
	store, err := shred.Open(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	slowLog := cfg.SlowQueryLog
	if slowLog == nil {
		slowLog = os.Stderr
	}
	e := &Engine{
		cfg:       cfg,
		db:        db,
		store:     store,
		bus:       hounds.NewBus(),
		plans:     newPlanCache(DefaultPlanCacheSize),
		reg:       reg,
		writerTok: make(chan struct{}, 1),
		sources:   map[string]*sourceReg{},
		slowLog:   slowLog,
		sessions:  map[uint64]*Session{},
	}
	// The implicit default session backs the legacy Engine.Query*
	// surface: no deadline, engine-default workers, outside the
	// MaxSessions cap and the Sessions listing.
	e.defaultSess, _ = e.newSession(context.Background(), SessionOptions{}, true)
	return e, nil
}

// Close cancels every open session, then checkpoints and closes the
// warehouse.
func (e *Engine) Close() error {
	e.closeAllSessions()
	return e.db.Close()
}

// DB exposes the underlying relational engine (benchmarks, diagnostics).
func (e *Engine) DB() *sql.DB { return e.db }

// Store exposes the shredded warehouse (benchmarks, diagnostics).
func (e *Engine) Store() *shred.Store { return e.store }

// Bus returns the trigger bus applications subscribe to.
func (e *Engine) Bus() *hounds.Bus { return e.bus }

// Recovered reports whether opening replayed a WAL after a crash.
func (e *Engine) Recovered() bool { return e.db.Recovered() }

// acquireWriter blocks until the single-writer token is free (or the
// context ends). Every warehouse mutation holds the token: it is what
// lets an escalated transaction exclude concurrent loads without
// touching e.mu.
func (e *Engine) acquireWriter(ctx context.Context) error {
	select {
	case e.writerTok <- struct{}{}:
		return nil
	default:
	}
	select {
	case e.writerTok <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// tryAcquireWriter is the non-blocking acquisition transactions use:
// losing the race is a conflict, not a queue.
func (e *Engine) tryAcquireWriter() bool {
	select {
	case e.writerTok <- struct{}{}:
		return true
	default:
		return false
	}
}

func (e *Engine) releaseWriter() { <-e.writerTok }

// RegisterSource attaches a remote source and its transformer under a
// warehouse database name (e.g. "hlx_enzyme.DEFAULT").
func (e *Engine) RegisterSource(dbName string, src hounds.Source, tr hounds.Transformer) error {
	if err := e.acquireWriter(context.Background()); err != nil {
		return err
	}
	defer e.releaseWriter()
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.sources[dbName]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateSource, dbName)
	}
	if err := e.store.RegisterDB(dbName, tr.SequencePaths(), dtdText(tr)); err != nil {
		return err
	}
	e.sources[dbName] = &sourceReg{source: src, transformer: tr}
	return nil
}

func dtdText(tr hounds.Transformer) string { return tr.DTD().String() }

// Harness performs a full load: fetch the source, transform to XML,
// validate against the DTD, shred into the warehouse (one batch), and
// fire a trigger. Returns the number of documents loaded.
func (e *Engine) Harness(dbName string) (int, error) {
	return e.HarnessContext(context.Background(), dbName)
}

// HarnessContext is Harness with cooperative cancellation: the load is
// checked between documents and crash-atomic chunks, so a cancelled
// harness leaves a committed prefix that the next harness replaces
// wholesale.
//
// The load runs as a parallel pipeline: the transformer streams
// entry-documents on a producer goroutine, a worker pool validates and
// shreds them concurrently, and the collector commits reordered chunks
// of bulk per-table inserts with index maintenance deferred (see
// pipeline.go). The previous harvest is cleared only after the stream
// yields its first document, so a source that fails to parse leaves the
// warehouse untouched, and the clear commits with the first chunk, so no
// reader sees the warehouse empty between two harvests.
func (e *Engine) HarnessContext(ctx context.Context, dbName string) (int, error) {
	if err := e.acquireWriter(ctx); err != nil {
		return 0, err
	}
	defer e.releaseWriter()
	return e.harnessContext(ctx, dbName, nil)
}

// harnessContext is the token-free harness body. Caller holds the
// writer token; st non-nil runs the load inside an escalated
// transaction's open batch (see tx.go).
func (e *Engine) harnessContext(ctx context.Context, dbName string, st *txLoadState) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.txLoad = st
	defer func() { e.txLoad = nil }()
	reg, ok := e.sources[dbName]
	if !ok || reg.source == nil {
		return 0, fmt.Errorf("%w for %q", ErrNoSource, dbName)
	}
	rc, version, err := reg.source.Fetch()
	if err != nil {
		return 0, err
	}
	defer rc.Close()
	n, err := e.harnessStreamLocked(ctx, dbName, reg.transformer, rc, version)
	if err == nil {
		reg.lastVersion = version
	}
	return n, err
}

// HarnessReaderContext is a full load from a caller-supplied flat-file
// stream instead of a registered source's fetch: the server's streamed
// /v1/ingest upload rides here, straight into the parallel shredding
// pipeline. The database is registered on first use (with the
// transformer's schema); a database already registered keeps its
// original transformer. version labels the load in the change trigger.
func (e *Engine) HarnessReaderContext(ctx context.Context, dbName string, tr hounds.Transformer, r io.Reader, version string) (int, error) {
	if err := e.acquireWriter(ctx); err != nil {
		return 0, err
	}
	defer e.releaseWriter()
	e.mu.Lock()
	defer e.mu.Unlock()
	reg, ok := e.sources[dbName]
	if !ok {
		if err := e.store.RegisterDB(dbName, tr.SequencePaths(), dtdText(tr)); err != nil {
			return 0, err
		}
		// No source: Harness/Update on this database report ErrNoSource;
		// only reader loads refresh it.
		reg = &sourceReg{transformer: tr}
		e.sources[dbName] = reg
	}
	n, err := e.harnessStreamLocked(ctx, dbName, reg.transformer, r, version)
	if err == nil {
		reg.lastVersion = version
	}
	return n, err
}

// harnessStreamLocked is the shared harness body: stream-transform the
// flat file, clear the previous harvest once the stream proves viable,
// run the parallel load pipeline, record stats and fire the trigger.
// Caller holds e.mu.
func (e *Engine) harnessStreamLocked(ctx context.Context, dbName string, tr hounds.Transformer, r io.Reader, version string) (int, error) {
	start := time.Now()
	cr := &countingReader{r: r}

	// Stream the transform on its own goroutine; documents are not
	// validated here (the pipeline workers do that in parallel).
	rawCh := make(chan *xmldoc.Document, e.loadWorkers())
	trErr := make(chan error, 1)
	stopTr := make(chan struct{})
	go func() {
		err := hounds.TransformStream(tr, cr, func(d *xmldoc.Document) error {
			select {
			case rawCh <- d:
				return nil
			case <-stopTr:
				return errLoadAborted
			}
		})
		close(rawCh)
		trErr <- err
	}()
	trDone := false // rawCh drained and trErr consumed
	abortTransform := func() {
		if trDone {
			return
		}
		trDone = true
		close(stopTr)
		for range rawCh {
		}
		<-trErr
	}

	// Wait for the first document (or the transform's verdict) before
	// destroying the previous harvest: a malformed flat file errors out
	// here with the warehouse intact.
	first, streaming := <-rawCh
	if !streaming {
		trDone = true
		if err := <-trErr; err != nil {
			return 0, err
		}
	}
	produce := func(emit func(*xmldoc.Document) error) error {
		perr := func() error {
			if !streaming {
				return nil
			}
			if err := emit(first); err != nil {
				return err
			}
			for d := range rawCh {
				if err := emit(d); err != nil {
					return err
				}
			}
			return nil
		}()
		if perr != nil {
			abortTransform()
			return perr
		}
		trDone = true
		return <-trErr
	}
	// The pipeline clears the previous harvest in the batch of the first
	// chunk it commits.
	names, tuples, err := e.runLoadPipeline(ctx, dbName, tr.DTD(), true, true, produce)
	if err != nil {
		// A pipeline that failed before calling produce leaves the
		// transform blocked on its channel.
		abortTransform()
		return 0, err
	}
	e.setLoadStats(LoadStats{
		Docs: len(names), Tuples: tuples, Bytes: cr.n,
		Elapsed: time.Since(start), Workers: e.loadWorkers(),
	})
	e.publishOrDefer(hounds.Trigger{Change: hounds.ChangeSet{
		DB: dbName, Version: version, Added: names,
	}})
	return len(names), nil
}

// publishOrDefer fires a change trigger — immediately for autocommit
// loads, deferred into the transaction state for loads inside an open
// batch (subscribers must not observe uncommitted changes). Caller
// holds e.mu.
func (e *Engine) publishOrDefer(tr hounds.Trigger) {
	if e.txLoad != nil {
		e.txLoad.triggers = append(e.txLoad.triggers, tr)
		return
	}
	e.bus.Publish(tr)
}

// errRepeatedEntry refuses a harvest that carries an entry name twice:
// names key the stored digests, so a repeat could never settle.
func errRepeatedEntry(dbName, name string) error {
	return fmt.Errorf("core: %s entry %q: repeated in the harvest", dbName, name)
}

// Update fetches the source again, diffs against the warehoused harvest
// and applies only the delta ("the ability to download and integrate the
// latest updates to any database without any information being left out
// or added twice"). A trigger describing the change set is published.
func (e *Engine) Update(dbName string) (hounds.ChangeSet, error) {
	return e.UpdateContext(context.Background(), dbName)
}

// UpdateContext is Update with cooperative cancellation; like
// HarnessContext, the delta load aborts between documents and chunks.
// The diff needs the full new harvest up front, so the transform is
// materialised (and validated) here and compared against the digests
// the warehouse stored at load time; the old harvest is never rebuilt.
// The replacement loads still go through the parallel shredding
// pipeline, with inline index maintenance for small deltas and the
// deferred bulk path once the delta reaches a full chunk.
func (e *Engine) UpdateContext(ctx context.Context, dbName string) (hounds.ChangeSet, error) {
	if err := e.acquireWriter(ctx); err != nil {
		return hounds.ChangeSet{}, err
	}
	defer e.releaseWriter()
	return e.updateContext(ctx, dbName, nil)
}

// updateContext is the token-free update body (caller holds the writer
// token; st as in harnessContext).
func (e *Engine) updateContext(ctx context.Context, dbName string, st *txLoadState) (hounds.ChangeSet, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.txLoad = st
	defer func() { e.txLoad = nil }()
	reg, ok := e.sources[dbName]
	if !ok || reg.source == nil {
		return hounds.ChangeSet{}, fmt.Errorf("%w for %q", ErrNoSource, dbName)
	}
	rc, version, err := reg.source.Fetch()
	if err != nil {
		return hounds.ChangeSet{}, err
	}
	start := time.Now()
	cr := &countingReader{r: rc}
	newDocs, err := hounds.TransformAndValidate(reg.transformer, cr)
	rc.Close()
	if err != nil {
		return hounds.ChangeSet{}, err
	}
	byName := make(map[string]*xmldoc.Document, len(newDocs))
	for _, d := range newDocs {
		if byName[d.Name] != nil {
			return hounds.ChangeSet{}, errRepeatedEntry(dbName, d.Name)
		}
		byName[d.Name] = d
	}
	// The writer's view: inside a transaction the digests are those of
	// the transaction's own loads.
	old, err := e.store.Digests(dbName, e.db.BatchView())
	if err != nil {
		return hounds.ChangeSet{}, err
	}
	cs := hounds.Diff(dbName, version, old, newDocs)
	if cs.Empty() {
		reg.lastVersion = version
		return cs, nil
	}
	// Deletions first (removed entries and the old versions of modified
	// ones), then the replacement loads in crash-atomic chunks. Inside a
	// transaction the batch is already open and stays open.
	if e.txLoad == nil {
		if err := e.db.Begin(); err != nil {
			return cs, err
		}
	}
	for _, name := range append(append([]string{}, cs.Removed...), cs.Modified...) {
		if err := e.store.DeleteDocument(dbName, name); err != nil {
			if e.txLoad == nil {
				err = errors.Join(err, e.db.Rollback())
			}
			return cs, err
		}
	}
	if e.txLoad == nil {
		if err := e.db.Commit(); err != nil {
			return cs, err
		}
	}
	var loads []*xmldoc.Document
	for _, name := range append(append([]string{}, cs.Modified...), cs.Added...) {
		loads = append(loads, byName[name])
	}
	// Documents were validated by the transform, so the pipeline skips
	// DTD validation (nil DTD). Deferring index maintenance only pays
	// for itself once the delta is bulk-sized.
	produce := func(emit func(*xmldoc.Document) error) error {
		for _, d := range loads {
			if err := emit(d); err != nil {
				return err
			}
		}
		return nil
	}
	names, tuples, err := e.runLoadPipeline(ctx, dbName, nil, len(loads) >= loadChunkSize, false, produce)
	if err != nil {
		return cs, err
	}
	e.setLoadStats(LoadStats{
		Docs: len(names), Tuples: tuples, Bytes: cr.n,
		Elapsed: time.Since(start), Workers: e.loadWorkers(),
	})
	reg.lastVersion = version
	e.publishOrDefer(hounds.Trigger{Change: cs})
	return cs, nil
}

// Databases lists warehoused database names.
func (e *Engine) Databases() []string { return e.store.Dict(nil).Databases() }

// DocCount reports the number of entries warehoused under a database.
func (e *Engine) DocCount(dbName string) (int, error) { return e.store.DocCount(dbName) }

// DTDTree renders the database's DTD as the indented structure tree the
// GUI's left panel shows (Fig. 7a).
func (e *Engine) DTDTree(dbName string) (string, error) {
	text, ok := e.store.Dict(nil).DTD(dbName)
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownDatabase, dbName)
	}
	if strings.TrimSpace(text) == "" {
		return "(no DTD registered)", nil
	}
	d, err := dtd.Parse(text)
	if err != nil {
		return "", fmt.Errorf("core: stored DTD unparseable: %w", err)
	}
	return d.Tree(), nil
}

// Document reconstructs one warehoused entry as XML text (the right
// panel of Fig. 7b).
func (e *Engine) Document(dbName, name string) (string, error) {
	doc, err := e.store.ReconstructByName(dbName, name)
	if err != nil {
		return "", err
	}
	return doc.Serialize(xmldoc.SerializeOptions{Indent: "  "}), nil
}

// Mode reports which execution path answered a query.
type Mode string

// Execution modes.
const (
	ModeSQL    Mode = "sql"    // XQ2SQL translation over the relational engine
	ModeNative Mode = "native" // in-memory fallback
)

// Query parses and runs a XomatiQ query. The XQ2SQL path is tried first;
// query shapes outside the translatable subset fall back to native
// evaluation over reconstructed documents.
//
// Query runs on the engine's implicit default session; new code that
// needs per-client state (deadlines, worker overrides, cancellation
// scope) should open an explicit session with NewSession.
func (e *Engine) Query(src string) (*Result, error) {
	return e.QueryContext(context.Background(), src)
}

// QueryContext runs a query under a context: cancelling the context
// aborts row production in the relational executor (or the native
// fallback) and returns ctx.Err(). Repeated queries hit the plan cache,
// skipping the XQ parse, the XQ2SQL translation and the SQL parse while
// the dictionary entries of every referenced database are unchanged.
//
// QueryContext is a thin wrapper over the engine's implicit default
// session (Session.Query on an explicit session is the primary API).
func (e *Engine) QueryContext(ctx context.Context, src string) (*Result, error) {
	return e.defaultSess.Query(ctx, src)
}

// plan returns a plan entry for a query text, translated against the
// dictionary of view. Only translations against a published dictionary
// are cached: the writer's working copy (BatchView) has no version.
// cached reports whether the entry came from the cache (EXPLAIN ANALYZE
// and the slow-query log surface it).
func (e *Engine) plan(src string, view *sql.Snap) (entry *planEntry, cached bool, err error) {
	dict := e.store.Dict(view)
	key, shared := normalizeQuery(src), view != e.db.BatchView()
	if shared {
		if entry, ok := e.plans.get(key, dict); ok {
			return entry, true, nil
		}
	}
	q, err := xq.Parse(src)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	entry, err = e.translate(q, dict)
	if err != nil {
		return nil, false, err
	}
	if shared {
		e.plans.put(key, entry)
	}
	return entry, false, nil
}

// translate builds a plan entry for a parsed query against dict.
func (e *Engine) translate(q *xq.Query, dict *shred.Dict) (*planEntry, error) {
	entry := &planEntry{q: q, version: dict.Version(), versions: map[string]uint64{}}
	for _, b := range slices.Concat(q.For, q.Let) {
		if b.Path.Doc != "" {
			entry.versions[b.Path.Doc] = dict.DBVersion(b.Path.Doc)
		}
	}
	tr, err := xq2sql.TranslateDict(dict, q, xq2sql.Options{UseKeywordIndex: true})
	if err == nil {
		stmt, perr := sql.Parse(tr.SQL)
		if perr != nil {
			return nil, fmt.Errorf("core: parsing translated SQL: %w", perr)
		}
		sel, ok := stmt.(*sql.Select)
		if !ok {
			return nil, fmt.Errorf("core: translated SQL is not a SELECT")
		}
		entry.tr = tr
		entry.stmt = sel
		return entry, nil
	}
	if errors.Is(err, xq2sql.ErrUnsupported) {
		entry.unsupported = true
		return entry, nil
	}
	return nil, err
}

// execPlan runs a plan entry: the translated statement over the
// relational engine with the session's execution options (trace, worker
// and memory-budget overrides, the view it reads, which the caller
// pinned), or the native fallback for unsupported shapes.
func (e *Engine) execPlan(ctx context.Context, entry *planEntry, o sql.ExecOpts) (*Result, error) {
	if !entry.unsupported {
		rows, qerr := e.db.QueryStmtOptsContext(ctx, entry.stmt, o)
		if qerr != nil {
			return nil, fmt.Errorf("core: executing translated SQL: %w", qerr)
		}
		res := &Result{Columns: entry.tr.Columns, Mode: ModeSQL, SQL: entry.tr.SQL}
		for _, tup := range rows.Rows {
			row := make([]string, len(tup))
			for i, v := range tup {
				row[i] = v.String()
			}
			res.Rows = append(res.Rows, row)
		}
		return res, nil
	}
	// Native fallback over documents rebuilt from the view the statement
	// reads.
	byDB := nativexml.Corpus{}
	for _, b := range entry.q.For {
		if _, done := byDB[b.Path.Doc]; b.Path.Doc == "" || done {
			continue
		}
		docs, err := e.store.Documents(ctx, b.Path.Doc, o.Snap)
		if err != nil {
			return nil, err
		}
		byDB[b.Path.Doc] = docs
	}
	nres, nerr := nativexml.EvalContext(ctx, byDB, entry.q)
	if nerr != nil {
		return nil, nerr
	}
	return &Result{Columns: nres.Columns, Rows: nres.Rows, Mode: ModeNative}, nil
}

// observeQuery feeds one finished query into the registry and, past the
// slow-query threshold, the slow-query log. tag is the session's
// slow-log label; qt may be nil (tracing off).
func (e *Engine) observeQuery(src, tag string, cached bool, qt *obs.QueryTrace, res *Result, err error, elapsed time.Duration) {
	q := &e.reg.Query
	q.Queries.Inc()
	q.Latency.Observe(elapsed)
	switch {
	case err != nil:
		q.Errors.Inc()
	case res.Mode == ModeNative:
		q.Native.Inc()
		q.Rows.Add(uint64(len(res.Rows)))
	default:
		q.SQL.Inc()
		q.Rows.Add(uint64(len(res.Rows)))
	}
	if e.cfg.SlowQueryThreshold <= 0 || elapsed < e.cfg.SlowQueryThreshold {
		return
	}
	q.Slow.Inc()
	e.logSlowQuery(src, tag, cached, qt, res, err, elapsed)
}

// slowQueryRecord is one JSON line of the slow-query log.
type slowQueryRecord struct {
	TS        string                `json:"ts"`
	Tag       string                `json:"tag,omitempty"`
	Query     string                `json:"query,omitempty"`
	Mode      Mode                  `json:"mode,omitempty"`
	SQL       string                `json:"sql,omitempty"`
	PlanCache string                `json:"plan_cache"`
	ElapsedMS float64               `json:"elapsed_ms"`
	Rows      int                   `json:"rows"`
	Error     string                `json:"error,omitempty"`
	Operators []obs.OperatorSummary `json:"operators,omitempty"`
}

func (e *Engine) logSlowQuery(src, tag string, cached bool, qt *obs.QueryTrace, res *Result, err error, elapsed time.Duration) {
	rec := slowQueryRecord{
		TS:        time.Now().UTC().Format(time.RFC3339Nano),
		Tag:       tag,
		Query:     src,
		PlanCache: "miss",
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
		Operators: qt.Operators(),
	}
	if cached {
		rec.PlanCache = "hit"
	}
	if err != nil {
		rec.Error = err.Error()
	} else {
		rec.Mode = res.Mode
		rec.SQL = res.SQL
		rec.Rows = len(res.Rows)
	}
	line, merr := json.Marshal(rec)
	if merr != nil {
		return
	}
	e.slowMu.Lock()
	defer e.slowMu.Unlock()
	e.slowLog.Write(append(line, '\n'))
}

// Explain translates a XomatiQ query and renders both the generated SQL
// and the relational plan the engine would execute — the "analysis of
// the query plans generated by the query optimizer" workflow (§3.2).
// Queries outside the translatable subset report the native fallback.
//
// Explain runs on the engine's implicit default session, like Query.
func (e *Engine) Explain(src string) (string, error) {
	return e.defaultSess.Explain(src)
}

// ExplainAnalyze runs the query and renders the executed plan with
// actual per-operator row counts and timings next to the plan text, plus
// a total line (rows, latency, mode, plan-cache verdict). Unlike
// Explain, the query REALLY executes — side effects on the plan cache
// and metrics are those of a normal run.
//
// ExplainAnalyze runs on the engine's implicit default session;
// Session.ExplainAnalyze applies per-session deadlines and overrides.
func (e *Engine) ExplainAnalyze(ctx context.Context, src string) (string, error) {
	return e.defaultSess.ExplainAnalyze(ctx, src)
}

// Compact rewrites the warehouse into a fresh file at path, reclaiming
// pages leaked by index rebuilds and re-harnessed databases. The running
// engine keeps using the old file; reopen the new one to switch.
func (e *Engine) Compact(path string) error {
	return e.db.CompactTo(path, sql.Options{PoolPages: e.cfg.PoolPages})
}
