// bulk.go builds B+trees bottom-up from sorted runs. The warehouse's
// bulk-load path drops secondary indexes to "stale" while shredded
// tuples stream into the heaps, then reconstructs each index here in one
// pass: leaves are filled left to right at full fan-out and parent
// levels are derived from the leaf minimums, instead of paying a
// top-down descent and log-structured splits per key.
package btree

import (
	"bytes"
	"fmt"

	"xomatiq/internal/storage/bufpool"
	"xomatiq/internal/storage/disk"
	"xomatiq/internal/storage/page"
)

// Item is one key/value pair for BulkLoad. Keys must be unique and
// sorted in strictly ascending order.
type Item struct {
	Key, Val []byte
}

// BulkLoad builds a new tree from pre-sorted items and returns it. The
// resulting tree is identical in search semantics to one built by
// repeated Insert: leaves chain through aux, an inner node's aux is its
// leftmost child, and each inner cell carries the minimum key of the
// child it routes to (so separators equal to a search key route right,
// matching the descent in Get/Seek).
func BulkLoad(pool *bufpool.Pool, items []Item) (*Tree, error) {
	type entry struct {
		minKey []byte
		page   disk.PageID
	}
	var level []entry
	pages := 1 // the anchor; every level adds its nodes below

	// Fill leaves left to right.
	lf, err := pool.Allocate(page.KindBTreeLeaf)
	if err != nil {
		return nil, fmt.Errorf("btree: bulk leaf: %w", err)
	}
	n := wrapNode(lf.Page())
	n.init(page.KindBTreeLeaf)
	level = append(level, entry{nil, lf.ID()})
	var prev []byte
	for i, it := range items {
		if len(it.Key) == 0 || len(it.Key) > MaxKey {
			pool.Unpin(lf, true)
			return nil, fmt.Errorf("btree: key of %d bytes (max %d)", len(it.Key), MaxKey)
		}
		if len(it.Val) > MaxValue {
			pool.Unpin(lf, true)
			return nil, fmt.Errorf("btree: value of %d bytes (max %d)", len(it.Val), MaxValue)
		}
		if i > 0 && bytes.Compare(prev, it.Key) >= 0 {
			pool.Unpin(lf, true)
			return nil, fmt.Errorf("btree: bulk load keys not strictly ascending at %d", i)
		}
		prev = it.Key
		cell := leafCell(it.Key, it.Val)
		if !n.fits(len(cell)) {
			nf, err := pool.Allocate(page.KindBTreeLeaf)
			if err != nil {
				pool.Unpin(lf, true)
				return nil, fmt.Errorf("btree: bulk leaf: %w", err)
			}
			nn := wrapNode(nf.Page())
			nn.init(page.KindBTreeLeaf)
			n.setAux(uint32(nf.ID()))
			pool.Unpin(lf, true)
			lf, n = nf, nn
			level = append(level, entry{append([]byte(nil), it.Key...), nf.ID()})
		}
		n.insertCellAt(n.numCells(), cell)
	}
	pool.Unpin(lf, true)
	pages += len(level)

	// Build inner levels from the minimums of the level below until a
	// single root remains. The first child of each group becomes the
	// node's aux (leftmost child); the rest become routing cells.
	for len(level) > 1 {
		var up []entry
		i := 0
		for i < len(level) {
			f, err := pool.Allocate(page.KindBTreeInner)
			if err != nil {
				return nil, fmt.Errorf("btree: bulk inner: %w", err)
			}
			in := wrapNode(f.Page())
			in.init(page.KindBTreeInner)
			in.setAux(uint32(level[i].page))
			up = append(up, entry{level[i].minKey, f.ID()})
			i++
			for i < len(level) {
				cell := innerCell(level[i].minKey, uint32(level[i].page))
				if !in.fits(len(cell)) {
					break
				}
				in.insertCellAt(in.numCells(), cell)
				i++
			}
			pool.Unpin(f, true)
		}
		level = up
		pages += len(level)
	}

	anchor, err := pool.Allocate(page.KindMeta)
	if err != nil {
		return nil, fmt.Errorf("btree: bulk anchor: %w", err)
	}
	anchor.Page().SetAux(uint32(level[0].page))
	id := anchor.ID()
	pool.Unpin(anchor, true)
	return &Tree{pool: pool, anchor: id, pages: pages}, nil
}
