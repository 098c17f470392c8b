// Package heap implements heap files: unordered collections of
// variable-length records stored in chained slotted pages, addressed by
// stable record IDs. Table rows in the XomatiQ relational engine live in
// heap files; every mutation is logged to the write-ahead log before the
// page is touched.
package heap

import (
	"errors"
	"fmt"

	"xomatiq/internal/storage/bufpool"
	"xomatiq/internal/storage/disk"
	"xomatiq/internal/storage/page"
	"xomatiq/internal/storage/wal"
)

// RID is a stable record identifier: the page holding the record and its
// slot within the page.
type RID struct {
	Page disk.PageID
	Slot uint16
}

// String renders the RID as "page:slot".
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// ErrTooLarge is returned for records that exceed the single-page limit.
var ErrTooLarge = errors.New("heap: record exceeds page capacity")

// maxRecord leaves room for the page header and one slot.
const maxRecord = page.Size - 64

// ErrFrozen is returned by mutators of a frozen (snapshot) heap.
var ErrFrozen = errors.New("heap: mutation of frozen snapshot heap")

// Heap is one heap file: a chain of pages linked through the page aux
// field. Mutation is not safe for concurrent use (the engine layer
// serialises writers); a frozen heap (see Freeze) is an immutable
// epoch-bound view safe to read concurrently with the writer.
type Heap struct {
	pool  *bufpool.Pool
	log   *wal.Log
	first disk.PageID
	last  disk.PageID
	count int
	bytes int64         // live record payload, for fill-factor statistics
	pages []disk.PageID // chain order
	img   []byte        // logPageImage's scratch buffer

	// Frozen heaps resolve page reads through the pool's version map at
	// a fixed epoch instead of the live frames.
	frozen bool
	epoch  uint64
}

// Freeze returns an immutable view of the heap bound to the given
// published epoch: reads resolve through the buffer pool's version map,
// so a concurrent writer's page mutations are invisible. The page chain
// and count are copied; mutators of the view fail with ErrFrozen. The
// caller is responsible for keeping the epoch pinned (bufpool.PinEpoch)
// while the view is in use.
func (h *Heap) Freeze(epoch uint64) *Heap {
	return &Heap{
		pool:   h.pool,
		first:  h.first,
		last:   h.last,
		count:  h.count,
		bytes:  h.bytes,
		pages:  append([]disk.PageID(nil), h.pages...),
		frozen: true,
		epoch:  epoch,
	}
}

// fetchRead resolves a page for reading: version-mapped at the frozen
// epoch, or the live frame for a mutable heap (whose callers are
// serialised against the writer by the engine).
func (h *Heap) fetchRead(id disk.PageID) (bufpool.PageRef, error) {
	if h.frozen {
		return h.pool.ReadAt(id, h.epoch)
	}
	return h.pool.FetchRef(id)
}

// Create allocates a new heap file and returns it. The first page ID is
// the heap's persistent identity; callers store it in the catalog.
func Create(pool *bufpool.Pool, log *wal.Log, txn uint64) (*Heap, error) {
	f, err := pool.Allocate(page.KindHeap)
	if err != nil {
		return nil, fmt.Errorf("heap: create: %w", err)
	}
	id := f.ID()
	pool.Unpin(f, true)
	if log != nil {
		if err := log.Append(wal.Record{Txn: txn, Op: wal.OpInitPage, Page: uint32(id), Kind: uint8(page.KindHeap)}); err != nil {
			return nil, err
		}
	}
	return &Heap{pool: pool, log: log, first: id, last: id, pages: []disk.PageID{id}}, nil
}

// Open attaches to an existing heap file by its first page, walking the
// chain to find the append target and record count.
func Open(pool *bufpool.Pool, log *wal.Log, first disk.PageID) (*Heap, error) {
	h := &Heap{pool: pool, log: log, first: first, last: first}
	id := first
	for id != disk.InvalidPage {
		f, err := pool.Fetch(id)
		if err != nil {
			return nil, fmt.Errorf("heap: open: %w", err)
		}
		f.Page().Records(func(_ int, rec []byte) bool {
			h.count++
			h.bytes += int64(len(rec))
			return true
		})
		next := disk.PageID(f.Page().Aux())
		pool.Unpin(f, false)
		h.pages = append(h.pages, id)
		h.last = id
		id = next
	}
	return h, nil
}

// FirstPage returns the heap's persistent identity.
func (h *Heap) FirstPage() disk.PageID { return h.first }

// Count reports the number of live records.
func (h *Heap) Count() int { return h.count }

// Bytes reports the payload bytes of the live records; over NumPages
// pages of page.Size bytes it gives the heap's fill factor.
func (h *Heap) Bytes() int64 { return h.bytes }

func (h *Heap) appendLog(r wal.Record) error {
	if h.log == nil {
		return nil
	}
	return h.log.Append(r)
}

// Insert appends a record and returns its RID.
func (h *Heap) Insert(txn uint64, rec []byte) (RID, error) {
	if h.frozen {
		return RID{}, ErrFrozen
	}
	if len(rec) > maxRecord {
		return RID{}, fmt.Errorf("heap: %d-byte record: %w", len(rec), ErrTooLarge)
	}
	f, err := h.pool.FetchMut(h.last)
	if err != nil {
		return RID{}, err
	}
	slot, err := f.Page().Insert(rec)
	if err == nil {
		rid := RID{Page: f.ID(), Slot: uint16(slot)}
		h.pool.UnpinMut(f, true)
		h.count++
		h.bytes += int64(len(rec))
		return rid, h.appendLog(wal.Record{Txn: txn, Op: wal.OpInsertAt, Page: uint32(rid.Page), Slot: rid.Slot, Data: rec})
	}
	if !errors.Is(err, page.ErrPageFull) {
		h.pool.UnpinMut(f, false)
		return RID{}, err
	}
	// Grow the chain.
	nf, err := h.pool.AllocateMut(page.KindHeap)
	if err != nil {
		h.pool.UnpinMut(f, false)
		return RID{}, err
	}
	f.Page().SetAux(uint32(nf.ID()))
	h.pool.UnpinMut(f, true)
	if err := h.appendLog(wal.Record{Txn: txn, Op: wal.OpInitPage, Page: uint32(nf.ID()), Kind: uint8(page.KindHeap)}); err != nil {
		h.pool.UnpinMut(nf, true)
		return RID{}, err
	}
	if err := h.appendLog(wal.Record{Txn: txn, Op: wal.OpSetAux, Page: uint32(h.last), Aux: uint32(nf.ID())}); err != nil {
		h.pool.UnpinMut(nf, true)
		return RID{}, err
	}
	h.last = nf.ID()
	h.pages = append(h.pages, nf.ID())
	slot, err = nf.Page().Insert(rec)
	if err != nil {
		h.pool.UnpinMut(nf, true)
		return RID{}, fmt.Errorf("heap: insert into fresh page: %w", err)
	}
	rid := RID{Page: nf.ID(), Slot: uint16(slot)}
	h.pool.UnpinMut(nf, true)
	h.count++
	h.bytes += int64(len(rec))
	return rid, h.appendLog(wal.Record{Txn: txn, Op: wal.OpInsertAt, Page: uint32(rid.Page), Slot: rid.Slot, Data: rec})
}

// logPageImage logs the frame's current page as one OpPageImage record:
// its used bytes without the free space in the middle (page.AppendImage).
// The image is assembled in the heap's scratch buffer, which the WAL has
// finished with when Append returns.
func (h *Heap) logPageImage(txn uint64, f *bufpool.Frame) error {
	if h.log == nil {
		return nil
	}
	h.img = f.Page().AppendImage(h.img[:0])
	return h.log.Append(wal.Record{
		Txn:  txn,
		Op:   wal.OpPageImage,
		Page: uint32(f.ID()),
		Kind: uint8(f.Page().Kind()),
		Data: h.img,
	})
}

// InsertBatch appends records in order, returning their RIDs. Instead of
// one WAL record per insert it logs one whole-page image per page the
// batch touches (when the page fills, and once for the partial tail), so
// a bulk load's log traffic is proportional to pages written, not rows.
//
// Correctness of the image against replay: the engine serialises
// transactions, so at image time the page holds only records of already
// committed transactions (whose ops precede this record in the log) plus
// records of the batch's own transaction. Replaying the image in log
// order therefore reconstructs exactly the committed state; if this
// transaction aborts, its images are filtered out with its other ops.
func (h *Heap) InsertBatch(txn uint64, recs [][]byte) ([]RID, error) {
	if h.frozen {
		return nil, ErrFrozen
	}
	if len(recs) == 0 {
		return nil, nil
	}
	rids := make([]RID, 0, len(recs))
	f, err := h.pool.FetchMut(h.last)
	if err != nil {
		return nil, err
	}
	touched := false // page has records from this batch not yet imaged
	for _, rec := range recs {
		if len(rec) > maxRecord {
			h.pool.UnpinMut(f, touched)
			return rids, fmt.Errorf("heap: %d-byte record: %w", len(rec), ErrTooLarge)
		}
		slot, err := f.Page().Insert(rec)
		if errors.Is(err, page.ErrPageFull) {
			// Grow the chain; the finished page's image includes the
			// forward link, so no separate init/set-aux records.
			nf, err := h.pool.AllocateMut(page.KindHeap)
			if err != nil {
				h.pool.UnpinMut(f, touched)
				return rids, err
			}
			f.Page().SetAux(uint32(nf.ID()))
			if err := h.logPageImage(txn, f); err != nil {
				h.pool.UnpinMut(f, true)
				h.pool.UnpinMut(nf, true)
				return rids, err
			}
			h.pool.UnpinMut(f, true)
			h.last = nf.ID()
			h.pages = append(h.pages, nf.ID())
			f = nf
			touched = false
			slot, err = f.Page().Insert(rec)
			if err != nil {
				h.pool.UnpinMut(f, true)
				return rids, fmt.Errorf("heap: batch insert into fresh page: %w", err)
			}
		} else if err != nil {
			h.pool.UnpinMut(f, touched)
			return rids, err
		}
		rids = append(rids, RID{Page: f.ID(), Slot: uint16(slot)})
		touched = true
		h.count++
		h.bytes += int64(len(rec))
	}
	if touched {
		if err := h.logPageImage(txn, f); err != nil {
			h.pool.UnpinMut(f, true)
			return rids, err
		}
	}
	h.pool.UnpinMut(f, touched)
	return rids, nil
}

// Get returns a copy of the record at rid.
func (h *Heap) Get(rid RID) ([]byte, error) { return h.AppendRecord(nil, rid) }

// AppendRecord appends the record at rid to dst, so a reader that
// fetches records one at a time can reuse one buffer for all of them.
func (h *Heap) AppendRecord(dst []byte, rid RID) ([]byte, error) {
	ref, err := h.fetchRead(rid.Page)
	if err != nil {
		return dst, err
	}
	rec, err := ref.Page().Get(int(rid.Slot))
	if err != nil {
		ref.Release()
		return dst, err
	}
	dst = append(dst, rec...)
	ref.Release()
	return dst, nil
}

// Delete removes the record at rid.
func (h *Heap) Delete(txn uint64, rid RID) error {
	if h.frozen {
		return ErrFrozen
	}
	f, err := h.pool.FetchMut(rid.Page)
	if err != nil {
		return err
	}
	old, err := f.Page().Get(int(rid.Slot))
	if err == nil {
		err = f.Page().Delete(int(rid.Slot))
	}
	if err != nil {
		h.pool.UnpinMut(f, false)
		return err
	}
	h.pool.UnpinMut(f, true)
	h.count--
	h.bytes -= int64(len(old))
	return h.appendLog(wal.Record{Txn: txn, Op: wal.OpDelete, Page: uint32(rid.Page), Slot: rid.Slot})
}

// Update replaces the record at rid. When the new payload no longer fits
// in its page the record moves; the returned RID is the current location.
func (h *Heap) Update(txn uint64, rid RID, rec []byte) (RID, error) {
	if h.frozen {
		return rid, ErrFrozen
	}
	if len(rec) > maxRecord {
		return rid, fmt.Errorf("heap: %d-byte record: %w", len(rec), ErrTooLarge)
	}
	f, err := h.pool.FetchMut(rid.Page)
	if err != nil {
		return rid, err
	}
	old, err := f.Page().Get(int(rid.Slot))
	if err == nil {
		err = f.Page().Update(int(rid.Slot), rec)
	}
	if err == nil {
		h.pool.UnpinMut(f, true)
		h.bytes += int64(len(rec) - len(old))
		return rid, h.appendLog(wal.Record{Txn: txn, Op: wal.OpUpdate, Page: uint32(rid.Page), Slot: rid.Slot, Data: rec})
	}
	h.pool.UnpinMut(f, false)
	if !errors.Is(err, page.ErrPageFull) {
		return rid, err
	}
	if err := h.Delete(txn, rid); err != nil {
		return rid, err
	}
	return h.Insert(txn, rec)
}

// NumPages reports the length of the heap's page chain.
func (h *Heap) NumPages() int { return len(h.pages) }

// PageIDs returns the heap's page chain in order. The slice is shared
// with the heap: callers must not mutate it, and a reader's view is only
// stable while the engine layer holds writers off (db.mu).
func (h *Heap) PageIDs() []disk.PageID { return h.pages }

// ScanPage calls fn for every live record of one page, holding the page's
// pin only for the duration of the call, and returns the next page of the
// chain (InvalidPage at the end). stopped reports that fn returned false.
// The rec slice passed to fn is only valid for the duration of the call.
// Streaming iterators are built on this: memory stays O(page), and pages
// of one heap may be scanned concurrently.
func (h *Heap) ScanPage(id disk.PageID, fn func(rid RID, rec []byte) bool) (next disk.PageID, stopped bool, err error) {
	ref, err := h.fetchRead(id)
	if err != nil {
		return disk.InvalidPage, false, err
	}
	ref.Page().Records(func(slot int, rec []byte) bool {
		if !fn(RID{Page: id, Slot: uint16(slot)}, rec) {
			stopped = true
			return false
		}
		return true
	})
	next = disk.PageID(ref.Page().Aux())
	ref.Release()
	return next, stopped, nil
}

// Scan calls fn for every live record in chain order. The rec slice passed
// to fn is only valid for the duration of the call.
func (h *Heap) Scan(fn func(rid RID, rec []byte) bool) error {
	id := h.first
	for id != disk.InvalidPage {
		next, stopped, err := h.ScanPage(id, fn)
		if err != nil {
			return err
		}
		if stopped {
			return nil
		}
		id = next
	}
	return nil
}

// Replay applies page-directed WAL operations (as returned by
// wal.CommittedOps) onto the pool's pages.
//
// Replay is idempotent per page: a crash can interrupt a checkpoint
// after some dirty pages reached the data file, so each page is either
// in the state of the previous checkpoint or already reflects every
// logged op. Re-applying the op sequence must therefore converge on the
// same final page image: InsertAt and Update both place the record at
// its exact slot, overwriting whatever is there, and Delete of an
// already-deleted slot is a no-op rather than an error.
func Replay(pool *bufpool.Pool, ops []wal.Record) error {
	for _, op := range ops {
		if op.Op == wal.OpInitPage {
			f, err := pool.Fetch(disk.PageID(op.Page))
			if err != nil {
				return fmt.Errorf("heap: replay init page %d: %w", op.Page, err)
			}
			f.Page().Init(page.Kind(op.Kind))
			pool.Unpin(f, true)
			continue
		}
		f, err := pool.Fetch(disk.PageID(op.Page))
		if err != nil {
			return fmt.Errorf("heap: replay page %d: %w", op.Page, err)
		}
		switch op.Op {
		case wal.OpSetAux:
			f.Page().SetAux(op.Aux)
		case wal.OpInsertAt, wal.OpUpdate:
			err = f.Page().InsertAt(int(op.Slot), op.Data)
		case wal.OpDelete:
			if f.Page().Live(int(op.Slot)) {
				err = f.Page().Delete(int(op.Slot))
			}
		case wal.OpPageImage:
			err = f.Page().SetImage(op.Data)
		default:
			err = fmt.Errorf("heap: replay unknown op %d", op.Op)
		}
		pool.Unpin(f, true)
		if err != nil {
			return fmt.Errorf("heap: replay op %d on page %d slot %d: %w", op.Op, op.Page, op.Slot, err)
		}
	}
	return nil
}
