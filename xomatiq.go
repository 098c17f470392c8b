// Package xomatiq is the public API of the XomatiQ reproduction: an
// "all-XML" biological data management system that warehouses
// heterogeneous biological databases as XML, shreds them into an
// embedded relational engine, and answers XQuery-style FLWR queries by
// translating them to SQL (Cruz, Laud, Bhowmick — "XomatiQ: Living With
// Genomes, Proteomes, Relations and a Little Bit of XML", ICDE 2003).
//
// A minimal session:
//
//	eng, _ := xomatiq.Open("warehouse.db")
//	defer eng.Close()
//	src := xomatiq.NewSimSource("expasy", enzymeFlatFileText)
//	eng.RegisterSource("hlx_enzyme.DEFAULT", src, xomatiq.EnzymeTransformer{})
//	eng.Harness("hlx_enzyme.DEFAULT")
//	sess, _ := eng.NewSession(ctx,
//		xomatiq.WithDefaultDeadline(5*time.Second),
//		xomatiq.WithSessionTag("ingest-ui"))
//	defer sess.Close()
//	res, _ := sess.Query(ctx, `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
//	WHERE contains($a//catalytic_activity, "ketone")
//	RETURN $a//enzyme_id, $a//enzyme_description`)
//	fmt.Print(res.Table())
//
// Queries enter the engine through a Session (Engine.NewSession): each
// session carries a default per-query deadline, an intra-query worker
// override, a slow-log tag and a cancellation scope, and shows up in
// Engine.Sessions listings with its own counters. The legacy
// Engine.Query/QueryContext surface remains as a thin wrapper over an
// implicit default session.
//
// Reads are MVCC snapshots: every query pins the engine epoch current at
// statement start and runs against immutable page versions, so bulk
// loads commit concurrently without ever blocking a reader. For
// multi-statement consistency, open an explicit transaction — all reads
// inside it see the single epoch pinned at Begin, and writes stay
// invisible to other sessions until Commit:
//
//	tx, _ := sess.Begin(ctx)
//	res1, _ := tx.Query(ctx, q1) // stable snapshot, concurrent loads invisible
//	res2, _ := tx.Query(ctx, q2) // same snapshot as res1
//	if _, err := tx.Harness(ctx, "hlx_enzyme.DEFAULT"); err != nil {
//		// a failed write rolled the transaction back;
//		// errors.Is(err, xomatiq.ErrTxConflict) means another writer won
//	}
//	tx.Commit() // publish everything atomically
//
// The first write escalates the transaction to the engine's single
// writer; losing that race — or writing after anything else committed —
// fails fast with ErrTxConflict (first committer wins; retry in a fresh
// transaction). The same transaction surface is reachable remotely via
// the /v1/tx endpoints and the console's \begin, \commit and \rollback
// commands.
//
// Results are wire-serializable — Result.JSON round-trips through
// ResultFromJSON byte-identically — and errors classify into a stable
// Code taxonomy (Error, ErrorCode) that survives serialization: a
// decoded remote error still matches the package sentinels under
// errors.Is. cmd/xomatiqd serves this API over HTTP and a console line
// protocol; see internal/server.
//
// Repeated queries are answered from an LRU plan cache that is
// invalidated automatically when a referenced database changes.
//
// The package re-exports the pieces a downstream application needs: the
// engine and sessions (internal/core), the Data Hounds sources and
// transformers (internal/hounds), and the flat-file toolkit with
// synthetic generators (internal/bio).
package xomatiq

import (
	"io"
	"time"

	"xomatiq/internal/bio"
	"xomatiq/internal/core"
	"xomatiq/internal/hounds"
	"xomatiq/internal/storage/disk"
	"xomatiq/internal/xq2sql"
)

// Engine is a XomatiQ warehouse instance: Data Hounds lifecycle plus the
// query pipeline.
type Engine = core.Engine

// Config tunes an Engine; use NewConfig for defaults.
type Config = core.Config

// Result is a materialised query result with XML, table and
// wire-stable JSON renderers (Result.JSON / ResultFromJSON).
type Result = core.Result

// ResultFromJSON decodes a Result.JSON payload (the /v1/query body).
func ResultFromJSON(data []byte) (*Result, error) { return core.ResultFromJSON(data) }

// Mode reports which execution path answered a query.
type Mode = core.Mode

// Execution modes.
const (
	ModeSQL    = core.ModeSQL
	ModeNative = core.ModeNative
)

// PlanCacheStats snapshots the plan cache's effectiveness counters.
type PlanCacheStats = core.PlanCacheStats

// Snapshot is the unified observability surface: one typed view of
// every engine metric (buffer pool, WAL, executor work, query latency,
// ingest throughput, plan cache, physical state, warehouses, last
// load). Get one with Engine.Snapshot(); flatten it with Metrics().
type Snapshot = core.Snapshot

// FS abstracts the filesystem the warehouse lives on (see WithFS).
type FS = disk.FS

// Session is one client's query scope: per-session deadline, worker
// override, tag, cancellation scope and counters. Open with
// Engine.NewSession, always Close when done.
type Session = core.Session

// SessionOptions carries the state a session starts from; build with
// the WithSession*/WithDefaultDeadline functional options.
type SessionOptions = core.SessionOptions

// SessionOption adjusts SessionOptions.
type SessionOption = core.SessionOption

// SessionInfo is the wire-ready description of one open session.
type SessionInfo = core.SessionInfo

// Tx is an explicit transaction on a session: a pinned snapshot for
// reads, escalating to the engine's single writer on the first
// Harness/Update. Open with Session.Begin or Session.BeginTx; exactly
// one of Commit or Rollback finishes it (Session.Close rolls back an
// open transaction).
type Tx = core.Tx

// TxOptions tunes a transaction at Session.BeginTx (ReadOnly refuses
// writes with ErrTxReadOnly and can never conflict).
type TxOptions = core.TxOptions

// Session option re-exports (Engine.NewSession).
var (
	// WithDefaultDeadline sets the session's default per-query deadline.
	WithDefaultDeadline = core.WithDefaultDeadline
	// WithSessionQueryWorkers overrides intra-query scan parallelism for
	// the session (0 = engine default, 1 = serial).
	WithSessionQueryWorkers = core.WithSessionQueryWorkers
	// WithSessionMemBudget bounds hash-join build memory for the
	// session's queries, in bytes (0 = engine default); joins past the
	// budget spill to temp files with byte-identical results.
	WithSessionMemBudget = core.WithSessionMemBudget
	// WithSessionTag labels the session in listings and the slow log.
	WithSessionTag = core.WithSessionTag
)

// Error is the wire form of an engine error: a stable Code plus the
// message. It survives JSON serialization and keeps errors.Is
// compatibility with the sentinels on both ends of a connection.
type Error = core.Error

// Code is the stable, wire-safe error classification.
type Code = core.Code

// The error taxonomy; ErrorCode classifies any error into it.
const (
	CodeUnknownDatabase = core.CodeUnknownDatabase
	CodeNoSource        = core.CodeNoSource
	CodeDuplicateSource = core.CodeDuplicateSource
	CodeUnsupported     = core.CodeUnsupported
	CodeBadQuery        = core.CodeBadQuery
	CodeCanceled        = core.CodeCanceled
	CodeDeadline        = core.CodeDeadline
	CodeSessionClosed   = core.CodeSessionClosed
	CodeTooManySessions = core.CodeTooManySessions
	CodeOverloaded      = core.CodeOverloaded
	CodeTxConflict      = core.CodeTxConflict
	CodeTxClosed        = core.CodeTxClosed
	CodeTxActive        = core.CodeTxActive
	CodeTxReadOnly      = core.CodeTxReadOnly
	CodeInternal        = core.CodeInternal
)

// ErrorCode classifies any error into the taxonomy (CodeInternal for
// errors with no public classification).
func ErrorCode(err error) Code { return core.ErrorCode(err) }

// WireError converts any error into its wire form (nil stays nil).
func WireError(err error) *Error { return core.WireError(err) }

// ErrorFromJSON decodes a wire error; the result matches the code's
// sentinel under errors.Is.
func ErrorFromJSON(data []byte) (*Error, error) { return core.ErrorFromJSON(data) }

// Sentinel errors; match with errors.Is.
var (
	// ErrUnknownDatabase reports a reference to an unregistered database.
	ErrUnknownDatabase = core.ErrUnknownDatabase
	// ErrNoSource reports a harness/update with no registered source.
	ErrNoSource = core.ErrNoSource
	// ErrDuplicateSource reports a repeated RegisterSource.
	ErrDuplicateSource = core.ErrDuplicateSource
	// ErrUnsupported marks query shapes outside the XQ2SQL-translatable
	// subset (the engine answers them natively; Explain reports it).
	ErrUnsupported = xq2sql.ErrUnsupported
	// ErrBadQuery wraps parse failures of the query text.
	ErrBadQuery = core.ErrBadQuery
	// ErrSessionClosed reports a query on a closed session.
	ErrSessionClosed = core.ErrSessionClosed
	// ErrTooManySessions reports a NewSession refused by MaxSessions.
	ErrTooManySessions = core.ErrTooManySessions
	// ErrOverloaded reports a query shed by MaxInflightQueries; back off
	// and retry.
	ErrOverloaded = core.ErrOverloaded
	// ErrTxConflict reports a transaction write that lost the single-
	// writer race, or whose snapshot went stale before its first write
	// (first committer wins); retry in a fresh transaction.
	ErrTxConflict = core.ErrTxConflict
	// ErrTxClosed reports an operation on a committed or rolled-back
	// transaction.
	ErrTxClosed = core.ErrTxClosed
	// ErrTxActive reports Session.Begin with a transaction already open
	// (one per session).
	ErrTxActive = core.ErrTxActive
	// ErrTxReadOnly reports a write inside a TxOptions.ReadOnly
	// transaction.
	ErrTxReadOnly = core.ErrTxReadOnly
)

// NewConfig returns the default configuration for a warehouse at path.
func NewConfig(path string) Config { return core.NewConfig(path) }

// Option adjusts the configuration Open starts from.
type Option func(*Config)

// WithPoolPages sets the buffer pool capacity in pages.
func WithPoolPages(n int) Option { return func(c *Config) { c.PoolPages = n } }

// WithQueryWorkers caps intra-query scan parallelism (0 = GOMAXPROCS,
// 1 = serial). Results are byte-identical for any setting.
func WithQueryWorkers(n int) Option { return func(c *Config) { c.QueryWorkers = n } }

// WithQueryMemBudget bounds the memory a hash join may hold for its
// build side, in bytes (0 = unlimited). Overflowing partitions spill to
// temp files beside the warehouse and reload at probe time; results are
// byte-identical for any budget.
func WithQueryMemBudget(n int64) Option { return func(c *Config) { c.QueryMemBudget = n } }

// WithLoadWorkers sets the harness ingest parallelism (0 = GOMAXPROCS).
// Warehouse contents are byte-identical for any setting.
func WithLoadWorkers(n int) Option { return func(c *Config) { c.LoadWorkers = n } }

// WithFS substitutes the filesystem backing the data file and WAL (nil
// means the real disk; fault-injection tests inject a failing FS).
func WithFS(fs FS) Option { return func(c *Config) { c.FS = fs } }

// WithSlowQueryThreshold enables the slow-query log: queries at or over
// d are written as JSON lines (query text, mode, plan-cache state,
// per-operator actuals) to the slow-query writer. Zero disables it.
func WithSlowQueryThreshold(d time.Duration) Option {
	return func(c *Config) { c.SlowQueryThreshold = d }
}

// WithSlowQueryLog directs the slow-query JSON lines to w (default
// os.Stderr). Only meaningful together with WithSlowQueryThreshold.
func WithSlowQueryLog(w io.Writer) Option { return func(c *Config) { c.SlowQueryLog = w } }

// WithMaxSessions caps concurrent sessions; NewSession past the cap
// fails with ErrTooManySessions (0 = unlimited).
func WithMaxSessions(n int) Option { return func(c *Config) { c.MaxSessions = n } }

// WithMaxInflightQueries caps engine-wide concurrent queries; past the
// cap queries are shed with ErrOverloaded instead of queueing
// (0 = unlimited).
func WithMaxInflightQueries(n int) Option { return func(c *Config) { c.MaxInflightQueries = n } }

// WithMaxOpenTx caps engine-wide concurrently open transactions;
// Session.Begin past the cap fails with ErrOverloaded (0 = unlimited).
func WithMaxOpenTx(n int) Option { return func(c *Config) { c.MaxOpenTx = n } }

// Open opens (or creates) a warehouse at path with default settings,
// adjusted by options.
func Open(path string, opts ...Option) (*Engine, error) {
	cfg := core.NewConfig(path)
	for _, o := range opts {
		o(&cfg)
	}
	return core.Open(cfg)
}

// OpenConfig opens a warehouse from an explicit Config. It is the
// escape hatch for callers that build configuration programmatically or
// need a Config field no functional option covers; Open with options
// and OpenConfig are otherwise equivalent.
func OpenConfig(cfg Config) (*Engine, error) { return core.Open(cfg) }

// Source is a remote database location the Data Hounds can fetch.
type Source = hounds.Source

// FileSource reads a flat file from disk.
type FileSource = hounds.FileSource

// SimSource is an in-process simulated remote with versioned publishes.
type SimSource = hounds.SimSource

// NewSimSource creates a simulated remote with initial content.
func NewSimSource(name, content string) *SimSource { return hounds.NewSimSource(name, content) }

// Transformer converts one source format into XML documents.
type Transformer = hounds.Transformer

// The built-in transformers for the paper's three databases.
type (
	// EnzymeTransformer maps the ENZYME flat file (Figures 2-4) to the
	// Figure 5/6 XML.
	EnzymeTransformer = hounds.EnzymeTransformer
	// EMBLTransformer maps EMBL nucleotide entries to hlx_n_sequence.
	EMBLTransformer = hounds.EMBLTransformer
	// SProtTransformer maps Swiss-Prot protein entries to hlx_n_sequence.
	SProtTransformer = hounds.SProtTransformer
)

// Trigger and ChangeSet describe warehouse updates delivered on the bus.
type (
	Trigger   = hounds.Trigger
	ChangeSet = hounds.ChangeSet
)

// GenOptions controls the synthetic corpus generators.
type GenOptions = bio.GenOptions

// The flat-file entry types and their seeded generators/writers, used to
// stand in for the 2003 FTP dumps (see DESIGN.md).
type (
	EnzymeEntry = bio.EnzymeEntry
	EMBLEntry   = bio.EMBLEntry
	SProtEntry  = bio.SProtEntry
)

// Generator and writer re-exports for building source files.
var (
	GenEnzymes  = bio.GenEnzymes
	GenEMBL     = bio.GenEMBL
	GenSProt    = bio.GenSProt
	WriteEnzyme = bio.WriteEnzyme
	WriteEMBL   = bio.WriteEMBL
	WriteSProt  = bio.WriteSProt
)
