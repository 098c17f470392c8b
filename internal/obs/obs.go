// Package obs is the engine-wide observability layer: a lock-cheap
// metrics registry every storage and execution layer feeds, plus the
// per-query trace collector behind EXPLAIN ANALYZE and the slow-query
// log (trace.go).
//
// Design constraints, in order:
//
//  1. Recording must cost nothing measurable on the hot path. Counters
//     and gauges are single atomic adds; histograms are two adds and one
//     bounded CAS loop; nothing takes a lock.
//  2. Reading must never block a writer. Snapshot loads every atomic
//     once and returns plain values, so a monitoring loop (console
//     \metrics, benchmarks) cannot stall a query worker.
//  3. Handles are always valid. A zero Registry works; layers hold
//     pointers into it and increment unconditionally, so there is no
//     per-event nil check or "is metrics enabled" branch.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load reads the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (may go up and down).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load reads the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// HistogramBuckets is the fixed bucket count of every latency histogram:
// exponential microsecond buckets, so bucket i holds observations in
// [2^(i-1), 2^i) µs (bucket 0 is sub-microsecond) and the last bucket
// absorbs everything from ~67s up. Fixed size keeps the histogram a flat
// array of atomics with no allocation per observation.
const HistogramBuckets = 28

// Histogram is a bounded latency histogram over exponential buckets.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64 // nanoseconds
	buckets [HistogramBuckets]atomic.Uint64
}

// bucketFor maps a duration in nanoseconds to its bucket index.
func bucketFor(ns uint64) int {
	b := bits.Len64(ns / 1000)
	if b >= HistogramBuckets {
		return HistogramBuckets - 1
	}
	return b
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	ns := uint64(d)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[bucketFor(ns)].Add(1)
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count    uint64
	SumNanos uint64
	MaxNanos uint64
	Buckets  [HistogramBuckets]uint64
}

// Snapshot copies the histogram's atomics. Concurrent observations may
// land between loads; each field is individually consistent and the
// per-field drift is at most the observations in flight.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:    h.count.Load(),
		SumNanos: h.sum.Load(),
		MaxNanos: h.max.Load(),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Mean reports the average observed latency.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNanos / s.Count)
}

// Max reports the largest observed latency.
func (s HistogramSnapshot) Max() time.Duration { return time.Duration(s.MaxNanos) }

// Quantile reports an upper bound for the q-quantile (0 < q <= 1): the
// upper edge of the bucket where the cumulative count crosses q. The
// error is bounded by the bucket width (a factor of two).
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	target := uint64(q * float64(s.Count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum >= target {
			if i == HistogramBuckets-1 {
				return time.Duration(s.MaxNanos)
			}
			// Upper edge of bucket i is 2^i µs.
			return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
		}
	}
	return time.Duration(s.MaxNanos)
}

// PoolShardMetrics is the per-shard counter block of the buffer pool;
// each shard holds a pointer and bumps its own cache-effectiveness
// counters without touching any other shard's cache line logically.
type PoolShardMetrics struct {
	Hits      Counter
	Misses    Counter
	Evictions Counter
}

// PoolMetrics aggregates the buffer pool's per-shard counters. Shards
// are bound once when the pool attaches (Bind); Snapshot sums them.
type PoolMetrics struct {
	mu     sync.Mutex
	shards []*PoolShardMetrics
}

// Bind sizes the per-shard counter blocks and returns the handles, one
// per shard. Called once when a pool attaches to the registry; a
// re-bind (a second pool reusing the registry) replaces the blocks.
func (p *PoolMetrics) Bind(n int) []*PoolShardMetrics {
	handles := make([]*PoolShardMetrics, n)
	for i := range handles {
		handles[i] = &PoolShardMetrics{}
	}
	p.mu.Lock()
	p.shards = handles
	p.mu.Unlock()
	return handles
}

// PoolShardSnapshot is one shard's counters at snapshot time.
type PoolShardSnapshot struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// PoolSnapshot is the buffer-pool section of a registry snapshot.
type PoolSnapshot struct {
	Shards    int
	Hits      uint64
	Misses    uint64
	Evictions uint64
	PerShard  []PoolShardSnapshot
}

// Snapshot sums the per-shard counters.
func (p *PoolMetrics) Snapshot() PoolSnapshot {
	p.mu.Lock()
	shards := p.shards
	p.mu.Unlock()
	s := PoolSnapshot{Shards: len(shards), PerShard: make([]PoolShardSnapshot, len(shards))}
	for i, sh := range shards {
		ss := PoolShardSnapshot{
			Hits:      sh.Hits.Load(),
			Misses:    sh.Misses.Load(),
			Evictions: sh.Evictions.Load(),
		}
		s.PerShard[i] = ss
		s.Hits += ss.Hits
		s.Misses += ss.Misses
		s.Evictions += ss.Evictions
	}
	return s
}

// WALMetrics counts write-ahead-log activity.
type WALMetrics struct {
	Appends Counter // records appended
	Fsyncs  Counter // file syncs (commit syncs and truncate syncs)
	Bytes   Counter // total bytes appended (monotone, not current size)
	// Bytes again, split by what the record carries; the three sum to it.
	PageImageBytes Counter // bulk-load page images
	RowOpBytes     Counter // init page, set aux, insert, delete, update
	CommitBytes    Counter // commit records
}

// WALSnapshot is the WAL section of a registry snapshot.
type WALSnapshot struct {
	Appends        uint64
	Fsyncs         uint64
	Bytes          uint64
	PageImageBytes uint64
	RowOpBytes     uint64
	CommitBytes    uint64
}

// HeapMetrics counts heap-scan work done by the executor.
type HeapMetrics struct {
	PagesScanned   Counter // heap pages visited by scan operators
	RecordsScanned Counter // records decoded by scan operators
}

// HeapSnapshot is the heap section of a registry snapshot.
type HeapSnapshot struct {
	PagesScanned   uint64
	RecordsScanned uint64
}

// IndexMetrics counts index probe work done by the executor.
type IndexMetrics struct {
	BTreeSearches Counter // B-tree prefix/range scans (access paths and join probes)
}

// IndexSnapshot is the index section of a registry snapshot.
type IndexSnapshot struct {
	BTreeSearches uint64
}

// QueryMetrics counts engine-level query traffic.
type QueryMetrics struct {
	Queries Counter // queries started
	SQL     Counter // answered via the XQ2SQL relational path
	Native  Counter // answered via the native fallback
	Errors  Counter // queries that returned an error
	Slow    Counter // queries at or over the slow-query threshold
	Rows    Counter // result rows returned
	Latency Histogram
}

// QuerySnapshot is the query section of a registry snapshot.
type QuerySnapshot struct {
	Queries uint64
	SQL     uint64
	Native  uint64
	Errors  uint64
	Slow    uint64
	Rows    uint64
	Latency HistogramSnapshot
}

// SessionMetrics counts the engine's session lifecycle and admission
// control: how many sessions were opened/closed, how many NewSession
// calls were shed by the MaxSessions cap, and how many queries were shed
// by the MaxInflightQueries cap (the server maps both to 429s).
type SessionMetrics struct {
	Opened   Counter // sessions created (the implicit default session is not counted)
	Closed   Counter // sessions closed
	Active   Gauge   // currently open sessions
	Rejected Counter // NewSession calls refused by the MaxSessions cap
	Shed     Counter // queries refused by the MaxInflightQueries cap
	Inflight Gauge   // queries currently executing across all sessions
	OpenTx   Gauge   // transactions currently open across all sessions
}

// SessionSnapshot is the session section of a registry snapshot.
type SessionSnapshot struct {
	Opened   uint64
	Closed   uint64
	Active   int64
	Rejected uint64
	Shed     uint64
	Inflight int64
	OpenTx   int64
}

// ExecMetrics counts work done by the vectorized executor's stateful
// operators: hash aggregation, chunk-wise sort, and hash-join spilling
// under a memory budget.
type ExecMetrics struct {
	AggGroups      Counter // groups materialized by hash aggregation
	SortRuns       Counter // sorted runs merged by the run-merge sort
	JoinSpillParts Counter // join partitions spilled to temp files
	JoinSpillBytes Counter // bytes written to join spill files
	JoinSpillLoads Counter // spilled partitions loaded back for probing
	JoinSwitches   Counter // index joins that switched to a hash build
}

// ExecSnapshot is the executor section of a registry snapshot.
type ExecSnapshot struct {
	AggGroups      uint64
	SortRuns       uint64
	JoinSpillParts uint64
	JoinSpillBytes uint64
	JoinSpillLoads uint64
	JoinSwitches   uint64
}

// IngestMetrics counts bulk-load pipeline throughput.
type IngestMetrics struct {
	Loads       Counter // harness/update loads completed
	Docs        Counter // documents shredded
	Tuples      Counter // relational tuples written
	Chunks      Counter // crash-atomic chunks committed
	SourceBytes Counter // raw source bytes fetched
}

// IngestSnapshot is the ingest section of a registry snapshot.
type IngestSnapshot struct {
	Loads       uint64
	Docs        uint64
	Tuples      uint64
	Chunks      uint64
	SourceBytes uint64
}

// Registry is the engine-wide metrics surface: one struct of atomics,
// grouped by layer. Layers hold pointers to their group and feed it
// directly; Engine.Snapshot reads the whole thing at once.
type Registry struct {
	Pool    PoolMetrics
	WAL     WALMetrics
	Heap    HeapMetrics
	Index   IndexMetrics
	Query   QueryMetrics
	Exec    ExecMetrics
	Ingest  IngestMetrics
	Session SessionMetrics
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// RegistrySnapshot is a point-in-time copy of every registry group.
// Counters are loaded individually, so groups may be skewed by the
// events in flight between loads, but every counter is monotone with
// respect to earlier snapshots.
type RegistrySnapshot struct {
	Pool    PoolSnapshot
	WAL     WALSnapshot
	Heap    HeapSnapshot
	Index   IndexSnapshot
	Query   QuerySnapshot
	Exec    ExecSnapshot
	Ingest  IngestSnapshot
	Session SessionSnapshot
}

// Snapshot copies the registry. Never blocks a writer: every read is one
// atomic load (the pool's shard-slice header is behind a mutex touched
// only at bind time).
func (r *Registry) Snapshot() RegistrySnapshot {
	return RegistrySnapshot{
		Pool: r.Pool.Snapshot(),
		WAL: WALSnapshot{
			Appends: r.WAL.Appends.Load(),
			Fsyncs:  r.WAL.Fsyncs.Load(),
			Bytes:   r.WAL.Bytes.Load(),

			PageImageBytes: r.WAL.PageImageBytes.Load(),
			RowOpBytes:     r.WAL.RowOpBytes.Load(),
			CommitBytes:    r.WAL.CommitBytes.Load(),
		},
		Heap: HeapSnapshot{
			PagesScanned:   r.Heap.PagesScanned.Load(),
			RecordsScanned: r.Heap.RecordsScanned.Load(),
		},
		Index: IndexSnapshot{
			BTreeSearches: r.Index.BTreeSearches.Load(),
		},
		Query: QuerySnapshot{
			Queries: r.Query.Queries.Load(),
			SQL:     r.Query.SQL.Load(),
			Native:  r.Query.Native.Load(),
			Errors:  r.Query.Errors.Load(),
			Slow:    r.Query.Slow.Load(),
			Rows:    r.Query.Rows.Load(),
			Latency: r.Query.Latency.Snapshot(),
		},
		Exec: ExecSnapshot{
			AggGroups:      r.Exec.AggGroups.Load(),
			SortRuns:       r.Exec.SortRuns.Load(),
			JoinSpillParts: r.Exec.JoinSpillParts.Load(),
			JoinSpillBytes: r.Exec.JoinSpillBytes.Load(),
			JoinSpillLoads: r.Exec.JoinSpillLoads.Load(),
			JoinSwitches:   r.Exec.JoinSwitches.Load(),
		},
		Ingest: IngestSnapshot{
			Loads:       r.Ingest.Loads.Load(),
			Docs:        r.Ingest.Docs.Load(),
			Tuples:      r.Ingest.Tuples.Load(),
			Chunks:      r.Ingest.Chunks.Load(),
			SourceBytes: r.Ingest.SourceBytes.Load(),
		},
		Session: SessionSnapshot{
			Opened:   r.Session.Opened.Load(),
			Closed:   r.Session.Closed.Load(),
			Active:   r.Session.Active.Load(),
			Rejected: r.Session.Rejected.Load(),
			Shed:     r.Session.Shed.Load(),
			Inflight: r.Session.Inflight.Load(),
			OpenTx:   r.Session.OpenTx.Load(),
		},
	}
}

// Metrics flattens the snapshot into canonical dotted keys. The same
// keys appear in the console's \metrics listing and as custom benchmark
// units, so numbers line up across surfaces.
func (s RegistrySnapshot) Metrics() map[string]float64 {
	m := map[string]float64{
		"pool.shards":           float64(s.Pool.Shards),
		"pool.hits":             float64(s.Pool.Hits),
		"pool.misses":           float64(s.Pool.Misses),
		"pool.evictions":        float64(s.Pool.Evictions),
		"wal.appends":           float64(s.WAL.Appends),
		"wal.fsyncs":            float64(s.WAL.Fsyncs),
		"wal.bytes":             float64(s.WAL.Bytes),
		"wal.bytes.page_image":  float64(s.WAL.PageImageBytes),
		"wal.bytes.row_op":      float64(s.WAL.RowOpBytes),
		"wal.bytes.commit":      float64(s.WAL.CommitBytes),
		"heap.pages_scanned":    float64(s.Heap.PagesScanned),
		"heap.records_scanned":  float64(s.Heap.RecordsScanned),
		"index.btree_searches":  float64(s.Index.BTreeSearches),
		"query.count":           float64(s.Query.Queries),
		"query.sql":             float64(s.Query.SQL),
		"query.native":          float64(s.Query.Native),
		"query.errors":          float64(s.Query.Errors),
		"query.slow":            float64(s.Query.Slow),
		"query.rows":            float64(s.Query.Rows),
		"exec.agg_groups":       float64(s.Exec.AggGroups),
		"exec.sort_runs":        float64(s.Exec.SortRuns),
		"exec.join_spill_parts": float64(s.Exec.JoinSpillParts),
		"exec.join_spill_bytes": float64(s.Exec.JoinSpillBytes),
		"exec.join_spill_loads": float64(s.Exec.JoinSpillLoads),
		"exec.join_switches":    float64(s.Exec.JoinSwitches),
		"ingest.loads":          float64(s.Ingest.Loads),
		"ingest.docs":           float64(s.Ingest.Docs),
		"ingest.tuples":         float64(s.Ingest.Tuples),
		"ingest.chunks":         float64(s.Ingest.Chunks),
		"ingest.source_bytes":   float64(s.Ingest.SourceBytes),
		"sessions.opened":       float64(s.Session.Opened),
		"sessions.closed":       float64(s.Session.Closed),
		"sessions.active":       float64(s.Session.Active),
		"sessions.rejected":     float64(s.Session.Rejected),
		"sessions.shed":         float64(s.Session.Shed),
		"sessions.inflight":     float64(s.Session.Inflight),
		"sessions.open_tx":      float64(s.Session.OpenTx),
	}
	if lat := s.Query.Latency; lat.Count > 0 {
		m["query.latency_mean_us"] = float64(lat.Mean()) / float64(time.Microsecond)
		m["query.latency_p50_us"] = float64(lat.Quantile(0.50)) / float64(time.Microsecond)
		m["query.latency_p95_us"] = float64(lat.Quantile(0.95)) / float64(time.Microsecond)
		m["query.latency_p99_us"] = float64(lat.Quantile(0.99)) / float64(time.Microsecond)
		m["query.latency_max_us"] = float64(lat.Max()) / float64(time.Microsecond)
	}
	return m
}

// FormatMetrics renders a flattened metric map as sorted "key value"
// lines (the console's \metrics view).
func FormatMetrics(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb []byte
	for _, k := range keys {
		v := m[k]
		if v == float64(uint64(v)) {
			sb = fmt.Appendf(sb, "%-24s %d\n", k, uint64(v))
		} else {
			sb = fmt.Appendf(sb, "%-24s %.1f\n", k, v)
		}
	}
	return string(sb)
}
