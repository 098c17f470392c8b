// Package page implements the 8 KiB slotted page that underlies heap files
// and B+tree nodes in the XomatiQ storage engine.
//
// Layout:
//
//	0..12   header: [2]numSlots [2]freeStart [2]freeEnd [1]kind [1]reserved [4]aux
//	12..    slot directory, 4 bytes per slot: [2]offset [2]length
//	...     free space (grows from both sides)
//	...8192 record payloads (grow downward from the page end)
//
// A deleted slot has offset 0xFFFF; slot numbers stay stable so record IDs
// (page, slot) remain valid across unrelated deletions.
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Size is the fixed page size in bytes.
const Size = 8192

const (
	headerSize   = 12
	slotSize     = 4
	deletedSlot  = 0xFFFF
	offNumSlots  = 0
	offFreeStart = 2
	offFreeEnd   = 4
	offKind      = 6
	offAux       = 8
)

// Kind tags what a page stores; the storage layers above assign meanings.
type Kind uint8

// Page kinds used across the engine.
const (
	KindFree Kind = iota
	KindHeap
	KindBTreeLeaf
	KindBTreeInner
	KindMeta
)

// ErrPageFull is returned when a record does not fit in the page.
var ErrPageFull = errors.New("page: full")

// Page is a fixed-size slotted page. The zero value is not usable; call
// Init or wrap an existing buffer with Wrap.
type Page struct {
	buf []byte
}

// Wrap interprets buf (which must be Size bytes) as a page without
// modifying it.
func Wrap(buf []byte) *Page {
	if len(buf) != Size {
		panic(fmt.Sprintf("page: Wrap with %d bytes", len(buf)))
	}
	return &Page{buf: buf}
}

// New allocates and initialises an empty page of the given kind.
func New(kind Kind) *Page {
	p := Wrap(make([]byte, Size))
	p.Init(kind)
	return p
}

// Init resets the page to empty with the given kind.
func (p *Page) Init(kind Kind) {
	for i := range p.buf[:headerSize] {
		p.buf[i] = 0
	}
	p.setU16(offNumSlots, 0)
	p.setU16(offFreeStart, headerSize)
	p.setU16(offFreeEnd, Size)
	p.buf[offKind] = byte(kind)
}

// Bytes returns the underlying buffer.
func (p *Page) Bytes() []byte { return p.buf }

// AppendImage appends the page's used bytes to dst — header and slot
// directory, then the record payloads — leaving out the free space
// between them, whose contents no reader ever looks at.
func (p *Page) AppendImage(dst []byte) []byte {
	dst = append(dst, p.buf[:p.u16(offFreeStart)]...)
	return append(dst, p.buf[p.u16(offFreeEnd):]...)
}

// SetImage overwrites the page with an image made by AppendImage,
// zero-filling the free space the image left out. A Size-byte image (all
// that was logged before free space was skipped) is taken as it is.
func (p *Page) SetImage(img []byte) error {
	if len(img) == Size {
		copy(p.buf, img)
		return nil
	}
	if len(img) < headerSize {
		return fmt.Errorf("page: image of %d bytes", len(img))
	}
	start := int(binary.LittleEndian.Uint16(img[offFreeStart:]))
	end := int(binary.LittleEndian.Uint16(img[offFreeEnd:]))
	if start < headerSize || start > end || end > Size || len(img) != start+Size-end {
		return fmt.Errorf("page: image of %d bytes with free space %d..%d", len(img), start, end)
	}
	copy(p.buf, img[:start])
	clear(p.buf[start:end])
	copy(p.buf[end:], img[start:])
	return nil
}

// Kind reports the page kind.
func (p *Page) Kind() Kind { return Kind(p.buf[offKind]) }

// SetKind updates the page kind.
func (p *Page) SetKind(k Kind) { p.buf[offKind] = byte(k) }

// Aux returns the page's 4-byte auxiliary field. Heap files use it to
// chain to the next page; B+tree leaves use it for the right sibling.
func (p *Page) Aux() uint32 { return binary.LittleEndian.Uint32(p.buf[offAux:]) }

// SetAux updates the auxiliary field.
func (p *Page) SetAux(v uint32) { binary.LittleEndian.PutUint32(p.buf[offAux:], v) }

func (p *Page) u16(off int) uint16       { return binary.LittleEndian.Uint16(p.buf[off:]) }
func (p *Page) setU16(off int, v uint16) { binary.LittleEndian.PutUint16(p.buf[off:], v) }

// NumSlots reports the number of slot directory entries (including
// deleted slots).
func (p *Page) NumSlots() int { return int(p.u16(offNumSlots)) }

func (p *Page) slotOff(i int) int { return headerSize + i*slotSize }

func (p *Page) slot(i int) (off, length uint16) {
	so := p.slotOff(i)
	return p.u16(so), p.u16(so + 2)
}

func (p *Page) setSlot(i int, off, length uint16) {
	so := p.slotOff(i)
	p.setU16(so, off)
	p.setU16(so+2, length)
}

// FreeSpace reports the bytes available for a new record, accounting for
// the slot directory entry it would need.
func (p *Page) FreeSpace() int {
	free := int(p.u16(offFreeEnd)) - int(p.u16(offFreeStart)) - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// Insert stores rec and returns its slot number. It reuses a deleted slot
// when one exists. Returns ErrPageFull when the record does not fit even
// after compaction.
func (p *Page) Insert(rec []byte) (int, error) {
	if len(rec) > Size-headerSize-slotSize {
		return 0, fmt.Errorf("page: record of %d bytes can never fit: %w", len(rec), ErrPageFull)
	}
	// Find a reusable slot (does not need directory growth).
	slot := -1
	n := p.NumSlots()
	for i := 0; i < n; i++ {
		if off, _ := p.slot(i); off == deletedSlot {
			slot = i
			break
		}
	}
	need := len(rec)
	if slot == -1 {
		need += slotSize
	}
	if int(p.u16(offFreeEnd))-int(p.u16(offFreeStart)) < need {
		p.Compact()
		if int(p.u16(offFreeEnd))-int(p.u16(offFreeStart)) < need {
			return 0, ErrPageFull
		}
	}
	end := p.u16(offFreeEnd) - uint16(len(rec))
	copy(p.buf[end:], rec)
	p.setU16(offFreeEnd, end)
	if slot == -1 {
		slot = n
		p.setU16(offNumSlots, uint16(n+1))
		p.setU16(offFreeStart, uint16(headerSize+(n+1)*slotSize))
	}
	p.setSlot(slot, end, uint16(len(rec)))
	return slot, nil
}

// Get returns the record in the given slot. The returned slice aliases the
// page buffer; callers must copy it before the page is modified or evicted.
func (p *Page) Get(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.NumSlots() {
		return nil, fmt.Errorf("page: slot %d out of range", slot)
	}
	off, length := p.slot(slot)
	if off == deletedSlot {
		return nil, fmt.Errorf("page: slot %d deleted", slot)
	}
	return p.buf[off : off+length], nil
}

// Delete removes the record in the given slot. The slot number is retired
// until reused by a later Insert.
func (p *Page) Delete(slot int) error {
	if slot < 0 || slot >= p.NumSlots() {
		return fmt.Errorf("page: slot %d out of range", slot)
	}
	off, _ := p.slot(slot)
	if off == deletedSlot {
		return fmt.Errorf("page: slot %d already deleted", slot)
	}
	p.setSlot(slot, deletedSlot, 0)
	return nil
}

// Live reports whether slot holds a record (false for deleted slots and
// slots outside the directory).
func (p *Page) Live(slot int) bool {
	if slot < 0 || slot >= p.NumSlots() {
		return false
	}
	off, _ := p.slot(slot)
	return off != deletedSlot
}

// Update replaces the record in the given slot, moving it when the new
// payload does not fit in place. Returns ErrPageFull when the page cannot
// hold the new payload.
func (p *Page) Update(slot int, rec []byte) error {
	if slot < 0 || slot >= p.NumSlots() {
		return fmt.Errorf("page: slot %d out of range", slot)
	}
	off, length := p.slot(slot)
	if off == deletedSlot {
		return fmt.Errorf("page: slot %d deleted", slot)
	}
	if len(rec) <= int(length) {
		copy(p.buf[off:], rec)
		p.setSlot(slot, off, uint16(len(rec)))
		return nil
	}
	// Relocate: free the old payload, compact if needed, place the new
	// one. Compact may move or discard the old bytes, so save them first
	// in case the new payload still does not fit and we must roll back.
	old := make([]byte, length)
	copy(old, p.buf[off:off+length])
	p.setSlot(slot, deletedSlot, 0)
	if int(p.u16(offFreeEnd))-int(p.u16(offFreeStart)) < len(rec) {
		p.Compact()
	}
	place := rec
	err := error(nil)
	if int(p.u16(offFreeEnd))-int(p.u16(offFreeStart)) < len(rec) {
		// Roll back: the old record fit before, so after compaction it
		// fits again.
		place = old
		err = ErrPageFull
	}
	end := p.u16(offFreeEnd) - uint16(len(place))
	copy(p.buf[end:], place)
	p.setU16(offFreeEnd, end)
	p.setSlot(slot, end, uint16(len(place)))
	return err
}

// InsertAt places rec in a specific slot, growing the slot directory as
// needed; intermediate new slots are created deleted. An occupied target
// slot is overwritten. It exists for WAL replay, which must reproduce
// exact record IDs.
func (p *Page) InsertAt(slot int, rec []byte) error {
	if slot < 0 || slot >= deletedSlot {
		return fmt.Errorf("page: InsertAt slot %d out of range", slot)
	}
	// Grow the directory up to and including the target slot.
	for p.NumSlots() <= slot {
		n := p.NumSlots()
		if int(p.u16(offFreeEnd))-int(p.u16(offFreeStart)) < slotSize {
			p.Compact()
			if int(p.u16(offFreeEnd))-int(p.u16(offFreeStart)) < slotSize {
				return ErrPageFull
			}
		}
		p.setU16(offNumSlots, uint16(n+1))
		p.setU16(offFreeStart, uint16(headerSize+(n+1)*slotSize))
		p.setSlot(n, deletedSlot, 0)
	}
	if off, _ := p.slot(slot); off != deletedSlot {
		return p.Update(slot, rec)
	}
	if int(p.u16(offFreeEnd))-int(p.u16(offFreeStart)) < len(rec) {
		p.Compact()
		if int(p.u16(offFreeEnd))-int(p.u16(offFreeStart)) < len(rec) {
			return ErrPageFull
		}
	}
	end := p.u16(offFreeEnd) - uint16(len(rec))
	copy(p.buf[end:], rec)
	p.setU16(offFreeEnd, end)
	p.setSlot(slot, end, uint16(len(rec)))
	return nil
}

// Compact rewrites live records contiguously at the page end, reclaiming
// holes left by deletions and relocations. Slot numbers are preserved.
func (p *Page) Compact() {
	type live struct {
		slot   int
		record []byte
	}
	n := p.NumSlots()
	lives := make([]live, 0, n)
	for i := 0; i < n; i++ {
		off, length := p.slot(i)
		if off == deletedSlot {
			continue
		}
		rec := make([]byte, length)
		copy(rec, p.buf[off:off+length])
		lives = append(lives, live{i, rec})
	}
	end := uint16(Size)
	for _, l := range lives {
		end -= uint16(len(l.record))
		copy(p.buf[end:], l.record)
		p.setSlot(l.slot, end, uint16(len(l.record)))
	}
	p.setU16(offFreeEnd, end)
}

// Records calls fn for each live slot in slot order; fn's record slice
// aliases the page buffer.
func (p *Page) Records(fn func(slot int, rec []byte) bool) {
	n := p.NumSlots()
	for i := 0; i < n; i++ {
		off, length := p.slot(i)
		if off == deletedSlot {
			continue
		}
		if !fn(i, p.buf[off:off+length]) {
			return
		}
	}
}

// LiveCount reports the number of live (non-deleted) slots.
func (p *Page) LiveCount() int {
	c := 0
	p.Records(func(int, []byte) bool { c++; return true })
	return c
}
