// Package bufpool provides a sharded LRU buffer pool over a disk.Manager.
// Pages hash by PageID onto N shards (N a power of two), each with its own
// mutex, LRU list and frame map, so concurrent readers of different pages
// never contend on one lock. Pages are pinned while in use; unpinned pages
// are eviction candidates. Dirty pages are written back on eviction (steal
// mode only) and on Flush.
//
// Concurrency model: pin counts are atomic, and each frame carries a
// shared/exclusive latch that a disk load holds exclusively — a Fetch that
// hits a frame mid-load blocks on the latch until the content is ready,
// while many readers of a resident hot page share it freely. Page content
// mutation is still serialised by the engine layer (db.mu); the pool's job
// is to make the read path scale with cores.
package bufpool

import (
	"container/list"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"xomatiq/internal/obs"
	"xomatiq/internal/storage/disk"
	"xomatiq/internal/storage/page"
)

// ErrNoCleanFrames is returned in no-steal mode when every unpinned frame
// of a shard is dirty; the caller must checkpoint (flush) and retry.
var ErrNoCleanFrames = errors.New("bufpool: no clean frames to evict (checkpoint needed)")

// minShardCapacity is the smallest per-shard frame budget worth sharding
// for: below it a pool keeps a single shard so the exact capacity and
// eviction semantics of small (test-sized) pools are preserved.
const minShardCapacity = 64

// maxShards caps the shard count; 16 shards cover the core counts this
// engine targets without fragmenting small pools.
const maxShards = 16

// Pool caches pages of one database file.
type Pool struct {
	mgr      *disk.Manager
	capacity int
	shards   []*shard
	mask     uint32

	// MVCC state (see mvcc.go): the published epoch, and a refcount of
	// readers pinned per epoch that holds retained page versions alive.
	epoch   atomic.Uint64
	pinMu   sync.Mutex
	pins    map[uint64]int
	retired []retiredPages // ascending upTo; guarded by pinMu
}

// shard is one lock domain of the pool: a frame map, an LRU list and the
// counters the engine reads. Pages map to shards by PageID & mask.
type shard struct {
	mu        sync.Mutex
	mgr       *disk.Manager
	capacity  int
	frames    map[disk.PageID]*Frame
	lru       *list.List // of *Frame; front = most recently used
	noSteal   bool
	mutations uint64
	// versions holds retained pre-images of pages mutated after an epoch
	// was published, ascending by upTo. Guarded by vmu, separate from mu
	// so version lookups never contend with frame-map traffic.
	vmu      sync.RWMutex
	versions map[disk.PageID][]pageVersion
	// m holds the shard's cache-effectiveness counters. Always non-nil:
	// New gives each shard a private block, and BindMetrics swaps in the
	// engine registry's blocks, so the hot path increments without a nil
	// check. Loads through the pointer race benignly with BindMetrics
	// only during pool construction, before any concurrent use.
	m *obs.PoolShardMetrics
}

// Frame is a cached page. Callers access the page through Page() and must
// hold a pin while doing so.
type Frame struct {
	id      disk.PageID
	buf     []byte
	pg      *page.Page
	pins    atomic.Int32
	dirty   bool // guarded by the owning shard's mu
	lruElem *list.Element
	shard   *shard

	// latch is held exclusively while the frame's content is loaded from
	// disk; a hit on an in-flight frame takes it shared to wait for the
	// load (and its verdict in loadErr) before returning. loaded flips
	// true once the content is known good, letting hits on resident pages
	// skip the latch entirely.
	latch   sync.RWMutex
	loadErr error
	loaded  atomic.Bool

	// born is epoch+1 at Allocate time for fresh pages (no published
	// epoch has seen them, so FetchMut skips pre-image retention), and 0
	// for frames loaded from disk. Only the single writer reads it.
	born uint64
}

// ID reports the page id the frame holds.
func (f *Frame) ID() disk.PageID { return f.id }

// Page returns the slotted-page view of the frame.
func (f *Frame) Page() *page.Page { return f.pg }

// shardCount picks a power-of-two shard count for a pool of the given
// capacity: enough shards to spread the machine's cores, but never so
// many that a shard drops below minShardCapacity frames.
func shardCount(capacity int) int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < maxShards {
		n <<= 1
	}
	for n > 1 && capacity/n < minShardCapacity {
		n >>= 1
	}
	return n
}

// New creates a pool holding at most capacity pages in total.
func New(mgr *disk.Manager, capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	n := shardCount(capacity)
	p := &Pool{
		mgr:      mgr,
		capacity: capacity,
		shards:   make([]*shard, n),
		mask:     uint32(n - 1),
		pins:     make(map[uint64]int),
	}
	per := capacity / n
	extra := capacity % n
	for i := range p.shards {
		c := per
		if i < extra {
			c++
		}
		p.shards[i] = &shard{
			mgr:      mgr,
			capacity: c,
			frames:   make(map[disk.PageID]*Frame),
			lru:      list.New(),
			versions: make(map[disk.PageID][]pageVersion),
			m:        &obs.PoolShardMetrics{},
		}
	}
	return p
}

// BindMetrics points each shard's counters at the given registry group
// so pool activity shows up in engine snapshots. Must be called before
// the pool sees concurrent use (the engine calls it at open time);
// counts recorded before the bind stay on the discarded private blocks.
func (p *Pool) BindMetrics(pm *obs.PoolMetrics) {
	handles := pm.Bind(len(p.shards))
	for i, s := range p.shards {
		s.m = handles[i]
	}
}

// shardFor maps a page id to its shard. The id is multiplied by a large
// odd constant first so chained heap pages (consecutive ids) spread over
// every shard instead of marching through them in lockstep.
func (p *Pool) shardFor(id disk.PageID) *shard {
	return p.shards[(uint32(id)*0x9E3779B1)&p.mask]
}

// ShardCount reports the number of lock shards (stats, tests).
func (p *Pool) ShardCount() int { return len(p.shards) }

// Stats is a snapshot of the pool's hit/miss/eviction counters.
type Stats struct {
	Shards    int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Stats snapshots the pool's cache-effectiveness counters.
func (p *Pool) Stats() Stats {
	s := Stats{Shards: len(p.shards)}
	for _, sh := range p.shards {
		s.Hits += sh.m.Hits.Load()
		s.Misses += sh.m.Misses.Load()
		s.Evictions += sh.m.Evictions.Load()
	}
	return s
}

// Fetch pins the page with the given id, reading it from disk on a miss.
// Callers must Unpin the frame when done. Safe for concurrent use: hits
// on resident pages take only the page's shard lock (and a shared latch
// acquire), and a miss reads from disk without holding any shard lock.
func (p *Pool) Fetch(id disk.PageID) (*Frame, error) {
	s := p.shardFor(id)
	s.mu.Lock()
	if f, ok := s.frames[id]; ok {
		f.pins.Add(1)
		s.lru.MoveToFront(f.lruElem)
		s.mu.Unlock()
		s.m.Hits.Inc()
		if f.loaded.Load() {
			return f, nil
		}
		// Wait out an in-flight load (shared latch) and check its verdict.
		f.latch.RLock()
		err := f.loadErr
		f.latch.RUnlock()
		if err != nil {
			f.pins.Add(-1)
			return nil, err
		}
		f.loaded.Store(true)
		return f, nil
	}
	s.m.Misses.Inc()
	f, err := s.newFrameLocked(id)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	// Load outside the shard lock, holding the frame latch exclusively so
	// concurrent fetchers of the same page wait on the latch, not on the
	// whole shard.
	f.latch.Lock()
	s.mu.Unlock()
	rerr := p.mgr.ReadPage(id, f.buf)
	f.loadErr = rerr
	if rerr == nil {
		f.loaded.Store(true)
	}
	f.latch.Unlock()
	if rerr != nil {
		s.mu.Lock()
		if s.frames[id] == f {
			s.dropFrameLocked(f)
		}
		s.mu.Unlock()
		f.pins.Add(-1)
		return nil, rerr
	}
	return f, nil
}

// Allocate allocates a fresh page on disk, initialises it to the given
// kind and returns it pinned.
func (p *Pool) Allocate(kind page.Kind) (*Frame, error) {
	id, err := p.mgr.Allocate()
	if err != nil {
		return nil, err
	}
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.frames[id]; ok {
		// A recycled page: its previous life may still be cached. Nothing
		// reaches that frame any more (the page was free), so forget it.
		s.dropFrameLocked(old)
	}
	f, err := s.newFrameLocked(id)
	if err != nil {
		return nil, err
	}
	f.pg.Init(kind)
	f.loaded.Store(true)
	f.dirty = true
	f.born = p.epoch.Load() + 1
	s.mutations++
	return f, nil
}

// newFrameLocked makes room (evicting if needed), registers and pins a
// fresh frame for id. Caller holds s.mu.
func (s *shard) newFrameLocked(id disk.PageID) (*Frame, error) {
	if len(s.frames) >= s.capacity {
		if err := s.evictLocked(); err != nil {
			return nil, err
		}
	}
	f := &Frame{id: id, buf: make([]byte, page.Size), shard: s}
	f.pins.Store(1)
	f.pg = page.Wrap(f.buf)
	f.lruElem = s.lru.PushFront(f)
	s.frames[id] = f
	return f, nil
}

func (s *shard) dropFrameLocked(f *Frame) {
	s.lru.Remove(f.lruElem)
	delete(s.frames, f.id)
}

// evictLocked removes the least recently used evictable frame of the
// shard. In the default (steal) mode dirty frames are written back before
// eviction; in no-steal mode dirty frames are never evicted, preserving
// the WAL invariant that the data file holds exactly the last checkpoint
// state. Caller holds s.mu. The pin check is safe against the lock-free
// Unpin: pins only rise under s.mu, so a frame observed unpinned here
// cannot gain a pin before it leaves the map.
func (s *shard) evictLocked() error {
	sawDirty := false
	for e := s.lru.Back(); e != nil; e = e.Prev() {
		f := e.Value.(*Frame)
		if f.pins.Load() > 0 {
			continue
		}
		if f.dirty {
			if s.noSteal {
				sawDirty = true
				continue
			}
			if err := s.mgr.WritePage(f.id, f.buf); err != nil {
				return err
			}
		}
		s.dropFrameLocked(f)
		s.m.Evictions.Inc()
		return nil
	}
	if sawDirty {
		return ErrNoCleanFrames
	}
	return fmt.Errorf("bufpool: all %d frames of shard pinned", s.capacity)
}

// SetNoSteal switches the eviction policy. The engine enables no-steal
// whenever a WAL governs the file.
func (p *Pool) SetNoSteal(v bool) {
	for _, s := range p.shards {
		s.mu.Lock()
		s.noSteal = v
		s.mu.Unlock()
	}
}

// DirtyCount reports the number of dirty frames (checkpoint policy input).
func (p *Pool) DirtyCount() int {
	n := 0
	for _, s := range p.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if f.dirty {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// Mutations reports a monotonic count of page-dirtying events (Allocate
// and dirty Unpin). Unlike DirtyCount it also moves when an
// already-dirty page is modified again, so the engine can tell whether a
// failed statement touched any page at all.
func (p *Pool) Mutations() uint64 {
	var n uint64
	for _, s := range p.shards {
		s.mu.Lock()
		n += s.mutations
		s.mu.Unlock()
	}
	return n
}

// Unpin releases one pin on the frame; dirty marks it modified. The
// clean-release path is lock-free (one atomic decrement), so concurrent
// readers draining a scan never serialise on the shard.
func (p *Pool) Unpin(f *Frame, dirty bool) {
	if dirty {
		s := f.shard
		s.mu.Lock()
		f.dirty = true
		s.mutations++
		s.mu.Unlock()
	}
	if f.pins.Add(-1) < 0 {
		panic(fmt.Sprintf("bufpool: unpin of unpinned page %d", f.id))
	}
}

// DiscardDirty drops every dirty frame without writing it back, so the
// next Fetch of those pages rereads the last checkpointed state from
// disk. This is the abort path of the no-steal/redo-only design: an
// uncommitted transaction lives only in dirty frames (and the WAL tail),
// so forgetting the frames forgets the transaction.
//
// A dirty frame that is still pinned is orphaned rather than an error:
// the only pins a rollback can race are snapshot readers finishing a
// page read (the writer holds none at abort time), and a reader's Frame
// pointer stays valid with its committed bytes after the frame leaves
// the map — the next Fetch simply builds a new frame from disk. The
// unused error return is kept for call-site compatibility.
func (p *Pool) DiscardDirty() error {
	for _, s := range p.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if f.dirty {
				s.dropFrameLocked(f)
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// Flush writes every dirty frame back to disk and syncs the file. Shards
// flush in order and pages within a shard in map order; page writes are
// independent, so ordering affects only fault-injection op numbering.
func (p *Pool) Flush() error {
	for _, s := range p.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if f.dirty {
				if err := p.mgr.WritePage(f.id, f.buf); err != nil {
					s.mu.Unlock()
					return err
				}
				f.dirty = false
			}
		}
		s.mu.Unlock()
	}
	return p.mgr.Sync()
}

// Len reports the number of cached frames (for tests and stats).
func (p *Pool) Len() int {
	n := 0
	for _, s := range p.shards {
		s.mu.Lock()
		n += len(s.frames)
		s.mu.Unlock()
	}
	return n
}
