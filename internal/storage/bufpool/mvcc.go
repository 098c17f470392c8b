// Multi-version page store: the copy-on-write layer that lets snapshot
// readers run concurrently with the single writer.
//
// The pool carries a monotonically increasing epoch. Epoch E names the
// committed state after the E-th published generation; the writer works in
// generation E+1 and publishes it with PublishEpoch. Before the writer's
// first mutation of a page in a generation, FetchMut retains an immutable
// pre-image of the page tagged upTo=E, meaning "this copy is the page's
// content at every epoch <= E since the previous retained copy". A reader
// pinned at epoch e resolves a page id to the retained copy with the
// smallest upTo >= e, or, when none exists, to the live frame — which is
// then guaranteed untouched since epoch e.
//
// Torn reads of the live frame are impossible: FetchMut holds the frame
// latch exclusively across retention and mutation, and ReadAt re-checks
// the version map after acquiring the latch shared, so a reader either
// sees the pre-image or blocks until the writer's page mutation is done
// (and then finds the pre-image).
//
// Retained copies are dropped by gcVersions once no pinned epoch can need
// them (upTo < min over pinned epochs and the current epoch). Pins are a
// refcount per epoch; queries and transactions pin the epoch they read at.
//
// Whole pages die the same way. When a commit leaves a structure behind —
// a superseded B-tree, a dropped table — the engine retires its pages
// (Retire) just before publishing: snapshots up to the current epoch may
// still walk them, so they wait, untouched, until the same floor has
// passed that epoch, and only then join the disk free list for reuse.
package bufpool

import (
	"xomatiq/internal/storage/disk"
	"xomatiq/internal/storage/page"
)

// pageVersion is one retained pre-image: the page's content at every
// epoch <= upTo (back to the previous retained version, if any).
type pageVersion struct {
	upTo uint64
	pg   *page.Page
}

// retiredPages is one Retire call: pages that nothing published after
// epoch upTo references, and that snapshots at epochs <= upTo may read.
type retiredPages struct {
	upTo uint64
	ids  []disk.PageID
}

// PageRef is a readable page handle returned by ReadAt: either a live
// frame held with a shared latch and a pin, or an immutable retained
// copy. Release is mandatory (a no-op for retained copies).
type PageRef struct {
	pool    *Pool
	f       *Frame
	pg      *page.Page
	latched bool
}

// Page returns the slotted-page view. Valid until Release.
func (r PageRef) Page() *page.Page { return r.pg }

// Release drops the latch and pin of a live-frame ref; retained-copy refs
// release nothing.
func (r PageRef) Release() {
	if r.f == nil {
		return
	}
	if r.latched {
		r.f.latch.RUnlock()
	}
	r.pool.Unpin(r.f, false)
}

// Epoch reports the current published epoch.
func (p *Pool) Epoch() uint64 { return p.epoch.Load() }

// PublishEpoch makes the writer's current generation the new published
// epoch and garbage-collects retained versions no pinned reader can need.
// Called by the engine at commit, under its write lock.
func (p *Pool) PublishEpoch() uint64 {
	e := p.epoch.Add(1)
	p.gcVersions()
	return e
}

// PinEpoch registers a reader at the current epoch and returns it.
// Retained versions with upTo >= the pinned epoch survive until the pin
// is released.
func (p *Pool) PinEpoch() uint64 {
	p.pinMu.Lock()
	e := p.epoch.Load()
	p.pins[e]++
	p.pinMu.Unlock()
	return e
}

// UnpinEpoch releases one reader pin taken at epoch e, collecting
// versions if that was the last pin at its epoch.
func (p *Pool) UnpinEpoch(e uint64) {
	p.pinMu.Lock()
	n := p.pins[e] - 1
	if n <= 0 {
		delete(p.pins, e)
	} else {
		p.pins[e] = n
	}
	p.pinMu.Unlock()
	if n <= 0 {
		p.gcVersions()
	}
}

// Retire takes pages out of service: the caller (the engine, under its
// write lock, about to publish) guarantees that no structure of the next
// epoch reaches them. They go to the disk free list once no reader is
// pinned at the current epoch or earlier — at that very publish when
// nothing is pinned. ids must name allocated pages.
func (p *Pool) Retire(ids []disk.PageID) {
	if len(ids) == 0 {
		return
	}
	p.pinMu.Lock()
	p.retired = append(p.retired, retiredPages{upTo: p.epoch.Load(), ids: ids})
	p.pinMu.Unlock()
}

// Recycling lists the pages on the disk free list and the retired pages
// still waiting for readers to let go of them, as of one instant (stats,
// page accounting).
func (p *Pool) Recycling() (free, retired []disk.PageID) {
	p.pinMu.Lock()
	defer p.pinMu.Unlock()
	for _, r := range p.retired {
		retired = append(retired, r.ids...)
	}
	return p.mgr.FreePages(), retired
}

// ResetFree replaces the disk free list with every page of the file that
// is neither marked in live (indexed by page id; the engine marks what
// its catalog reaches) nor retired and still waiting. The engine calls it
// when it opens a file and after a rollback: the list is derived, never
// stored. live is used as scratch.
func (p *Pool) ResetFree(live []bool) error {
	p.pinMu.Lock()
	defer p.pinMu.Unlock()
	for _, r := range p.retired {
		for _, id := range r.ids {
			if int(id) < len(live) {
				live[id] = true
			}
		}
	}
	var free []disk.PageID
	for id := 1; id < len(live); id++ { // page 0 is the file header
		if !live[id] {
			free = append(free, disk.PageID(id))
		}
	}
	return p.mgr.SetFree(free)
}

// PinnedEpochs reports the number of distinct epochs currently pinned
// (stats, tests).
func (p *Pool) PinnedEpochs() int {
	p.pinMu.Lock()
	defer p.pinMu.Unlock()
	return len(p.pins)
}

// gcVersions drops what no live epoch can resolve to. The floor is the
// smallest epoch any pinned reader (or a reader pinning right now, which
// gets the current epoch) can observe; a retained version or a retired
// page is needed only while some reader's epoch e satisfies e <= upTo,
// so everything with upTo < floor goes. New pins only ever land on the
// current epoch, so the floor cannot move backwards between computing it
// and sweeping.
func (p *Pool) gcVersions() {
	min := p.epoch.Load()
	p.pinMu.Lock()
	for e := range p.pins {
		if e < min {
			min = e
		}
	}
	// Retired pages change lists under pinMu, so that ResetFree never
	// sees a page on neither list or on both.
	for len(p.retired) > 0 && p.retired[0].upTo < min {
		// Free only refuses ids outside the file, which Retire's caller
		// has ruled out, and the file never shrinks.
		_ = p.mgr.Free(p.retired[0].ids...)
		p.retired = p.retired[1:]
	}
	p.pinMu.Unlock()
	for _, s := range p.shards {
		s.vmu.Lock()
		for id, vs := range s.versions {
			i := 0
			for i < len(vs) && vs[i].upTo < min {
				i++
			}
			if i == 0 {
				continue
			}
			if i == len(vs) {
				delete(s.versions, id)
			} else {
				s.versions[id] = append([]pageVersion(nil), vs[i:]...)
			}
		}
		s.vmu.Unlock()
	}
}

// VersionCount reports the number of retained page copies (stats, tests).
func (p *Pool) VersionCount() int {
	n := 0
	for _, s := range p.shards {
		s.vmu.RLock()
		for _, vs := range s.versions {
			n += len(vs)
		}
		s.vmu.RUnlock()
	}
	return n
}

// version resolves id at epoch to a retained copy, or nil when the live
// frame is the right content for that epoch.
func (s *shard) version(id disk.PageID, epoch uint64) *page.Page {
	s.vmu.RLock()
	vs := s.versions[id]
	for _, v := range vs {
		if v.upTo >= epoch {
			s.vmu.RUnlock()
			return v.pg
		}
	}
	s.vmu.RUnlock()
	return nil
}

// FetchMut pins the page for mutation: the frame latch is held
// exclusively until UnpinMut, and a pre-image is retained for the
// published epoch if this is the generation's first touch of the page.
// Writer side of the MVCC protocol; the engine's single-writer rule means
// at most one FetchMut is outstanding per page.
func (p *Pool) FetchMut(id disk.PageID) (*Frame, error) {
	f, err := p.Fetch(id)
	if err != nil {
		return nil, err
	}
	f.latch.Lock()
	p.retain(f)
	return f, nil
}

// AllocateMut allocates a fresh page holding the exclusive latch, pairing
// with UnpinMut like FetchMut. Fresh pages need no pre-image (no published
// epoch has seen them, so no snapshot reader can reach them), but taking
// the latch lets mutators treat fetched and allocated frames uniformly.
func (p *Pool) AllocateMut(kind page.Kind) (*Frame, error) {
	f, err := p.Allocate(kind)
	if err != nil {
		return nil, err
	}
	f.latch.Lock()
	return f, nil
}

// UnpinMut releases a FetchMut'd frame: drops the exclusive latch, then
// the pin (marking the frame dirty first when requested).
func (p *Pool) UnpinMut(f *Frame, dirty bool) {
	f.latch.Unlock()
	p.Unpin(f, dirty)
}

// retain stores a pre-image of f tagged with the current epoch, unless
// the frame was born in the current generation (no published epoch ever
// saw it) or a copy for this epoch already exists. Caller holds the
// frame latch exclusively, so the copy is consistent.
func (p *Pool) retain(f *Frame) {
	cur := p.epoch.Load()
	if f.born > cur {
		return
	}
	s := f.shard
	s.vmu.Lock()
	vs := s.versions[f.id]
	if n := len(vs); n > 0 && vs[n-1].upTo >= cur {
		s.vmu.Unlock()
		return
	}
	buf := make([]byte, page.Size)
	copy(buf, f.buf)
	s.versions[f.id] = append(vs, pageVersion{upTo: cur, pg: page.Wrap(buf)})
	s.vmu.Unlock()
}

// ReadAt resolves the page at the given pinned epoch: a retained copy if
// the page changed since, otherwise the live frame under a shared latch
// (re-checking the version map after latching, so a concurrent writer's
// retain-then-mutate cannot slip between the first check and the latch).
// The caller must Release the ref when done with the page.
func (p *Pool) ReadAt(id disk.PageID, epoch uint64) (PageRef, error) {
	s := p.shardFor(id)
	if pg := s.version(id, epoch); pg != nil {
		return PageRef{pg: pg}, nil
	}
	f, err := p.Fetch(id)
	if err != nil {
		return PageRef{}, err
	}
	f.latch.RLock()
	if pg := s.version(id, epoch); pg != nil {
		f.latch.RUnlock()
		p.Unpin(f, false)
		return PageRef{pg: pg}, nil
	}
	return PageRef{pool: p, f: f, pg: f.pg, latched: true}, nil
}

// FetchRef is the live-read counterpart of ReadAt for callers already
// serialised against the writer (engine code under db.mu): a plain pinned
// fetch wrapped in the same PageRef shape so shared read helpers work on
// both paths.
func (p *Pool) FetchRef(id disk.PageID) (PageRef, error) {
	f, err := p.Fetch(id)
	if err != nil {
		return PageRef{}, err
	}
	return PageRef{pool: p, f: f, pg: f.pg}, nil
}
