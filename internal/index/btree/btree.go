// Package btree implements a disk-backed B+tree over the buffer pool.
// Keys are arbitrary byte strings compared lexicographically (callers
// produce order-preserving encodings with value.EncodeKey); values are
// small byte payloads, typically record IDs.
//
// The tree enforces unique keys. Secondary indexes with duplicate column
// values append the record ID to the key, which both uniquifies it and
// keeps duplicates range-scannable by prefix.
//
// A fixed anchor page (page.KindMeta) stores the current root page in its
// aux field, so the anchor ID is the tree's stable persistent identity
// even as splits move the root.
//
// Deletion removes cells without rebalancing; pages may remain underfull.
// Warehouse workloads are bulk-load and read-mostly, so space is
// reclaimed by rebuilding the index (which also happens on crash
// recovery, since index pages are not WAL-logged).
package btree

import (
	"bytes"
	"fmt"

	"xomatiq/internal/storage/bufpool"
	"xomatiq/internal/storage/disk"
	"xomatiq/internal/storage/page"
)

// MaxKey is the largest supported key length; MaxValue the largest value.
// One cell (key+value+overhead) must fit in a quarter page so a node can
// always hold at least a handful of cells.
const (
	MaxKey   = 1024
	MaxValue = 512
)

// Tree is a B+tree rooted in a buffer pool. Mutation is serialised by
// the engine layer; a frozen tree (see Freeze) is an immutable
// epoch-bound view safe to read concurrently with the writer.
type Tree struct {
	pool   *bufpool.Pool
	anchor disk.PageID
	pages  int // anchor and nodes; kept current by Insert's splits

	// Frozen trees resolve page reads (anchor, inner, leaf) through the
	// pool's version map at a fixed epoch.
	frozen bool
	epoch  uint64
}

// ErrFrozen is returned by mutators of a frozen (snapshot) tree.
var ErrFrozen = fmt.Errorf("btree: mutation of frozen snapshot tree")

// Freeze returns an immutable view of the tree bound to the given
// published epoch. The anchor page itself is versioned, so the view's
// root — and every node below it — is the tree as of that epoch, no
// matter how many splits the live tree has seen since. The caller must
// keep the epoch pinned (bufpool.PinEpoch) while the view is in use.
func (t *Tree) Freeze(epoch uint64) *Tree {
	return &Tree{pool: t.pool, anchor: t.anchor, pages: t.pages, frozen: true, epoch: epoch}
}

// fetchRead resolves a page for reading: version-mapped at the frozen
// epoch, or the live frame for a mutable tree (whose callers are
// serialised against the writer by the engine).
func (t *Tree) fetchRead(id disk.PageID) (bufpool.PageRef, error) {
	if t.frozen {
		return t.pool.ReadAt(id, t.epoch)
	}
	return t.pool.FetchRef(id)
}

// Create allocates a new empty tree and returns it. The anchor page ID is
// the tree's persistent identity.
func Create(pool *bufpool.Pool) (*Tree, error) {
	root, err := pool.Allocate(page.KindBTreeLeaf)
	if err != nil {
		return nil, fmt.Errorf("btree: create root: %w", err)
	}
	wrapNode(root.Page()).init(page.KindBTreeLeaf)
	rootID := root.ID()
	pool.Unpin(root, true)

	anchor, err := pool.Allocate(page.KindMeta)
	if err != nil {
		return nil, fmt.Errorf("btree: create anchor: %w", err)
	}
	anchor.Page().SetAux(uint32(rootID))
	id := anchor.ID()
	pool.Unpin(anchor, true)
	return &Tree{pool: pool, anchor: id, pages: 2}, nil
}

// Open attaches to an existing tree by its anchor page.
func Open(pool *bufpool.Pool, anchor disk.PageID) (*Tree, error) {
	f, err := pool.Fetch(anchor)
	if err != nil {
		return nil, fmt.Errorf("btree: open anchor: %w", err)
	}
	kind := f.Page().Kind()
	pool.Unpin(f, false)
	if kind != page.KindMeta {
		return nil, fmt.Errorf("btree: page %d is not a tree anchor", anchor)
	}
	t := &Tree{pool: pool, anchor: anchor}
	ids, err := t.Pages()
	if err != nil {
		return nil, fmt.Errorf("btree: open: %w", err)
	}
	t.pages = len(ids)
	return t, nil
}

// Anchor returns the tree's persistent identity.
func (t *Tree) Anchor() disk.PageID { return t.anchor }

// NumPages reports how many pages the tree occupies, anchor included.
func (t *Tree) NumPages() int { return t.pages }

func (t *Tree) root() (disk.PageID, error) {
	ref, err := t.fetchRead(t.anchor)
	if err != nil {
		return 0, err
	}
	id := disk.PageID(ref.Page().Aux())
	ref.Release()
	return id, nil
}

func (t *Tree) setRoot(id disk.PageID) error {
	f, err := t.pool.FetchMut(t.anchor)
	if err != nil {
		return err
	}
	f.Page().SetAux(uint32(id))
	t.pool.UnpinMut(f, true)
	return nil
}

// Insert puts (key, val) into the tree, replacing any existing value for
// the key. ok reports whether the key was new.
func (t *Tree) Insert(key, val []byte) (ok bool, err error) {
	if t.frozen {
		return false, ErrFrozen
	}
	if len(key) == 0 || len(key) > MaxKey {
		return false, fmt.Errorf("btree: key of %d bytes (max %d)", len(key), MaxKey)
	}
	if len(val) > MaxValue {
		return false, fmt.Errorf("btree: value of %d bytes (max %d)", len(val), MaxValue)
	}
	rootID, err := t.root()
	if err != nil {
		return false, err
	}
	res, err := t.insert(rootID, key, val)
	if err != nil {
		return false, err
	}
	if res.split {
		// Grow a new root.
		nr, err := t.pool.AllocateMut(page.KindBTreeInner)
		if err != nil {
			return false, err
		}
		n := wrapNode(nr.Page())
		n.init(page.KindBTreeInner)
		n.setAux(uint32(rootID)) // leftmost child
		n.insertCellAt(0, innerCell(res.sepKey, uint32(res.right)))
		newRoot := nr.ID()
		t.pool.UnpinMut(nr, true)
		t.pages++
		if err := t.setRoot(newRoot); err != nil {
			return false, err
		}
	}
	return res.added, nil
}

type insertResult struct {
	added  bool
	split  bool
	sepKey []byte
	right  disk.PageID
}

func (t *Tree) insert(id disk.PageID, key, val []byte) (insertResult, error) {
	// The whole descent uses FetchMut: leaves are always mutated, and
	// inner nodes may be re-fetched for separator insertion after a child
	// split. Retaining a pre-image of a node that ends up untouched costs
	// one page copy per generation — cheap next to the split logic.
	f, err := t.pool.FetchMut(id)
	if err != nil {
		return insertResult{}, err
	}
	n := wrapNode(f.Page())
	if n.isLeaf() {
		res, dirty, err := t.leafInsert(f, n, key, val)
		t.pool.UnpinMut(f, dirty)
		return res, err
	}
	// Inner: find the child to descend into.
	rank, exact := n.search(key)
	if exact {
		rank++ // separators equal to key route right
	}
	var child disk.PageID
	if rank == 0 {
		child = disk.PageID(n.aux())
	} else {
		child = disk.PageID(n.child(rank - 1))
	}
	t.pool.UnpinMut(f, false)

	res, err := t.insert(child, key, val)
	if err != nil || !res.split {
		return res, err
	}
	// Child split: add separator to this node.
	f, err = t.pool.FetchMut(id)
	if err != nil {
		return insertResult{}, err
	}
	n = wrapNode(f.Page())
	cell := innerCell(res.sepKey, uint32(res.right))
	rank, _ = n.search(res.sepKey)
	if n.fits(len(cell)) {
		n.ensureFit(len(cell))
		n.insertCellAt(rank, cell)
		t.pool.UnpinMut(f, true)
		return insertResult{added: res.added}, nil
	}
	out, err := t.splitInner(f, n, rank, cell)
	out.added = res.added
	return out, err
}

// leafInsert places (key, val) into leaf node n, splitting when full.
func (t *Tree) leafInsert(f *bufpool.Frame, n node, key, val []byte) (insertResult, bool, error) {
	rank, exact := n.search(key)
	if exact {
		// Replace: remove then reinsert (value size may differ).
		n.removeCellAt(rank)
	}
	cell := leafCell(key, val)
	if n.fits(len(cell)) {
		n.ensureFit(len(cell))
		n.insertCellAt(rank, cell)
		return insertResult{added: !exact}, true, nil
	}
	res, err := t.splitLeaf(f, n, rank, cell)
	res.added = !exact
	return res, true, err
}

// splitLeaf splits the full leaf in frame f, inserting cell at rank in
// the appropriate half. Returns the separator (first key of the right
// node) and the right page. The caller unpins f.
func (t *Tree) splitLeaf(f *bufpool.Frame, n node, rank int, cell []byte) (insertResult, error) {
	rf, err := t.pool.AllocateMut(page.KindBTreeLeaf)
	if err != nil {
		return insertResult{}, err
	}
	r := wrapNode(rf.Page())
	r.init(page.KindBTreeLeaf)

	num := n.numCells()
	mid := num / 2
	// Move cells [mid, num) to the right node.
	for i := mid; i < num; i++ {
		r.insertCellAt(i-mid, leafCell(n.key(i), n.value(i)))
	}
	for i := num - 1; i >= mid; i-- {
		n.removeCellAt(i)
	}
	n.compact()
	// Chain leaves.
	r.setAux(n.aux())
	n.setAux(uint32(rf.ID()))

	// Place the pending cell.
	if rank <= mid {
		n.ensureFit(len(cell))
		n.insertCellAt(rank, cell)
	} else {
		r.ensureFit(len(cell))
		r.insertCellAt(rank-mid, cell)
	}
	sep := append([]byte(nil), r.key(0)...)
	right := rf.ID()
	t.pool.UnpinMut(rf, true)
	t.pages++
	return insertResult{split: true, sepKey: sep, right: right}, nil
}

// splitInner splits the full inner node in frame f while inserting cell
// at rank. The middle separator is promoted, not kept. The caller's frame
// is unpinned here.
func (t *Tree) splitInner(f *bufpool.Frame, n node, rank int, cell []byte) (insertResult, error) {
	rf, err := t.pool.AllocateMut(page.KindBTreeInner)
	if err != nil {
		t.pool.UnpinMut(f, true)
		return insertResult{}, err
	}
	r := wrapNode(rf.Page())
	r.init(page.KindBTreeInner)

	num := n.numCells()
	mid := num / 2
	promoted := append([]byte(nil), n.key(mid)...)
	promotedChild := n.child(mid)

	for i := mid + 1; i < num; i++ {
		r.insertCellAt(i-mid-1, innerCell(n.key(i), n.child(i)))
	}
	for i := num - 1; i >= mid; i-- {
		n.removeCellAt(i)
	}
	n.compact()
	r.setAux(promotedChild) // leftmost child of the right node

	// Insert the pending separator cell into the correct half.
	if rank <= mid {
		n.ensureFit(len(cell))
		n.insertCellAt(rank, cell)
	} else {
		r.ensureFit(len(cell))
		r.insertCellAt(rank-mid-1, cell)
	}
	right := rf.ID()
	t.pool.UnpinMut(rf, true)
	t.pool.UnpinMut(f, true)
	t.pages++
	return insertResult{split: true, sepKey: promoted, right: right}, nil
}

// Get returns the value stored for key, or ok=false.
func (t *Tree) Get(key []byte) (val []byte, ok bool, err error) {
	id, err := t.root()
	if err != nil {
		return nil, false, err
	}
	for {
		ref, err := t.fetchRead(id)
		if err != nil {
			return nil, false, err
		}
		n := wrapNode(ref.Page())
		if n.isLeaf() {
			rank, exact := n.search(key)
			if !exact {
				ref.Release()
				return nil, false, nil
			}
			out := append([]byte(nil), n.value(rank)...)
			ref.Release()
			return out, true, nil
		}
		rank, exact := n.search(key)
		if exact {
			rank++
		}
		if rank == 0 {
			id = disk.PageID(n.aux())
		} else {
			id = disk.PageID(n.child(rank - 1))
		}
		ref.Release()
	}
}

// Delete removes key. ok reports whether it was present.
func (t *Tree) Delete(key []byte) (ok bool, err error) {
	if t.frozen {
		return false, ErrFrozen
	}
	id, err := t.root()
	if err != nil {
		return false, err
	}
	for {
		f, err := t.pool.FetchMut(id)
		if err != nil {
			return false, err
		}
		n := wrapNode(f.Page())
		if n.isLeaf() {
			rank, exact := n.search(key)
			if !exact {
				t.pool.UnpinMut(f, false)
				return false, nil
			}
			n.removeCellAt(rank)
			t.pool.UnpinMut(f, true)
			return true, nil
		}
		rank, exact := n.search(key)
		if exact {
			rank++
		}
		if rank == 0 {
			id = disk.PageID(n.aux())
		} else {
			id = disk.PageID(n.child(rank - 1))
		}
		t.pool.UnpinMut(f, false)
	}
}

// Iterator walks leaf entries in ascending key order.
type Iterator struct {
	tree *Tree
	page disk.PageID
	rank int
	key  []byte
	val  []byte
	err  error
	done bool
}

// Seek returns an iterator positioned at the first entry with key >= from.
// A nil from starts at the smallest key.
func (t *Tree) Seek(from []byte) *Iterator {
	it := &Iterator{tree: t}
	id, err := t.root()
	if err != nil {
		it.err = err
		it.done = true
		return it
	}
	for {
		ref, err := t.fetchRead(id)
		if err != nil {
			it.err = err
			it.done = true
			return it
		}
		n := wrapNode(ref.Page())
		if n.isLeaf() {
			rank, _ := n.search(from)
			it.page = id
			it.rank = rank - 1 // Next advances to rank
			ref.Release()
			return it
		}
		rank, exact := n.search(from)
		if exact {
			rank++
		}
		if rank == 0 {
			id = disk.PageID(n.aux())
		} else {
			id = disk.PageID(n.child(rank - 1))
		}
		ref.Release()
	}
}

// Next advances to the next entry, reporting false at the end or on error.
func (it *Iterator) Next() bool {
	if it.done {
		return false
	}
	for {
		ref, err := it.tree.fetchRead(it.page)
		if err != nil {
			it.err = err
			it.done = true
			return false
		}
		n := wrapNode(ref.Page())
		if it.rank+1 < n.numCells() {
			it.rank++
			it.key = append(it.key[:0], n.key(it.rank)...)
			it.val = append(it.val[:0], n.value(it.rank)...)
			ref.Release()
			return true
		}
		next := disk.PageID(n.aux())
		ref.Release()
		if next == disk.InvalidPage {
			it.done = true
			return false
		}
		it.page = next
		it.rank = -1
	}
}

// Key returns the current key (valid until the next call to Next).
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value (valid until the next call to Next).
func (it *Iterator) Value() []byte { return it.val }

// Err reports any error that terminated iteration.
func (it *Iterator) Err() error { return it.err }

// ScanPrefix calls fn for every entry whose key begins with prefix, in
// key order, until fn returns false.
func (t *Tree) ScanPrefix(prefix []byte, fn func(key, val []byte) bool) error {
	it := t.Seek(prefix)
	for it.Next() {
		if !bytes.HasPrefix(it.Key(), prefix) {
			break
		}
		if !fn(it.Key(), it.Value()) {
			break
		}
	}
	return it.Err()
}

// ScanRange calls fn for every entry with from <= key < to (nil to means
// unbounded) until fn returns false.
func (t *Tree) ScanRange(from, to []byte, fn func(key, val []byte) bool) error {
	it := t.Seek(from)
	for it.Next() {
		if to != nil && bytes.Compare(it.Key(), to) >= 0 {
			break
		}
		if !fn(it.Key(), it.Value()) {
			break
		}
	}
	return it.Err()
}

// Len counts entries by full scan (tests and stats only).
func (t *Tree) Len() (int, error) {
	n := 0
	it := t.Seek(nil)
	for it.Next() {
		n++
	}
	return n, it.Err()
}

// Check verifies node-level invariants across all leaves (tests only):
// keys strictly ascending within and across chained leaves.
func (t *Tree) Check() error {
	var prev []byte
	it := t.Seek(nil)
	for it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			return fmt.Errorf("btree: global key order violated")
		}
		prev = append(prev[:0], it.Key()...)
	}
	return it.Err()
}

// Pages lists every page of the tree: the anchor, then the nodes level
// by level. Only inner nodes are read, plus the first node of the leaf
// level to recognise it — a leaf's id is known from its parent, and all
// leaves of a B+tree sit at one depth.
func (t *Tree) Pages() ([]disk.PageID, error) {
	root, err := t.root()
	if err != nil {
		return nil, err
	}
	ids := []disk.PageID{t.anchor}
	for level := []disk.PageID{root}; len(level) > 0; {
		ids = append(ids, level...)
		var next []disk.PageID
		for _, id := range level {
			ref, err := t.fetchRead(id)
			if err != nil {
				return nil, err
			}
			n := wrapNode(ref.Page())
			if n.isLeaf() {
				ref.Release()
				break
			}
			next = append(next, disk.PageID(n.aux()))
			for i, num := 0, n.numCells(); i < num; i++ {
				next = append(next, disk.PageID(n.child(i)))
			}
			ref.Release()
		}
		level = next
	}
	return ids, nil
}
