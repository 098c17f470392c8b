package sql

import (
	"fmt"
	"math"

	"xomatiq/internal/value"
)

// defaultChunkCap is the row capacity batched operators aim for: large
// enough to amortise per-batch bookkeeping over hundreds of rows, small
// enough that a pipeline of chunks stays cache- and memory-friendly.
// The cost model shrinks it for scans expected to emit few rows
// (batchSizeFor).
const defaultChunkCap = 256

// batchIter is the vectorized executor interface: a pull-based stream of
// columnar chunks. NextChunk returns nil at end of stream; a returned
// chunk is owned by the iterator and valid only until the next NextChunk
// call on the same iterator (operators reset and reuse their chunks), so
// consumers must copy anything they keep — TupleAt produces a safely
// retainable row.
type batchIter interface {
	Schema() *Schema
	NextChunk() (*chunk, error)
}

// chunkPoison is a test hook: when true, Reset scribbles over the
// chunk's payload before truncating it, so any operator that illegally
// retained a reference into a recycled chunk produces loudly corrupt
// results instead of silently stale ones.
var chunkPoison = false

// colVec is one column of a chunk: a per-row kind byte (doubling as the
// null bitmap — KindNull marks a null row), a fixed-width payload lane
// for numeric kinds, and a shared append arena with cumulative end
// offsets for TEXT/BYTES payloads. Rows of non-arena kinds contribute
// zero arena bytes, so offs stays dense and branch-free to index.
type colVec struct {
	kinds []byte
	nums  []uint64 // INT two's-complement bits, FLOAT IEEE bits, BOOL 0/1
	offs  []uint32 // cumulative arena end offset per row
	data  []byte   // TEXT/BYTES append arena
	// str is the sealed form of data: one string copy made lazily on
	// first text access after the chunk is filled. Substrings of it are
	// immutable, so values handed out stay correct even after the chunk
	// is reset and refilled — retention is safe, aliasing is impossible.
	str    string
	sealed bool
}

func (v *colVec) reset() {
	v.kinds = v.kinds[:0]
	v.nums = v.nums[:0]
	v.offs = v.offs[:0]
	v.data = v.data[:0]
	v.str = ""
	v.sealed = false
}

// start/end bound the arena payload of one row.
func (v *colVec) start(row int) uint32 {
	if row == 0 {
		return 0
	}
	return v.offs[row-1]
}

func (v *colVec) appendNull() {
	v.kinds = append(v.kinds, byte(value.KindNull))
	v.nums = append(v.nums, 0)
	v.offs = append(v.offs, uint32(len(v.data)))
}

func (v *colVec) appendNum(k value.Kind, bits uint64) {
	v.kinds = append(v.kinds, byte(k))
	v.nums = append(v.nums, bits)
	v.offs = append(v.offs, uint32(len(v.data)))
}

func (v *colVec) appendArena(k value.Kind, payload []byte) {
	v.kinds = append(v.kinds, byte(k))
	v.nums = append(v.nums, 0)
	v.data = append(v.data, payload...)
	v.offs = append(v.offs, uint32(len(v.data)))
}

// text returns the row's TEXT payload as a substring of the sealed
// arena. The seal (one string allocation per column per chunk) happens
// on the first text access and is what makes handed-out values immune
// to chunk reuse.
func (v *colVec) text(row int) string {
	if !v.sealed {
		v.str = string(v.data)
		v.sealed = true
	}
	return v.str[v.start(row):v.offs[row]]
}

// payload returns the raw arena bytes of one row. The slice aliases the
// chunk arena: valid only until the chunk is reset, never retain it.
func (v *colVec) payload(row int) []byte {
	return v.data[v.start(row):v.offs[row]]
}

// chunk is a fixed-capacity columnar batch of rows: one colVec per
// schema column plus an optional selection vector. Operators allocate a
// chunk once and reset-and-reuse it across batches.
type chunk struct {
	schema *Schema
	cols   []colVec
	n      int // physical rows appended
	// sel, when non-nil, lists the logical rows (as physical indexes, in
	// order) that survive upstream filters. Filters narrow it in place of
	// copying the columns; downstream operators iterate Rows()/RowIdx().
	sel []int
	cap int // target rows per batch (a hint; a page may overshoot it)
}

func newChunk(schema *Schema, capHint int) *chunk {
	if capHint <= 0 {
		capHint = defaultChunkCap
	}
	return &chunk{schema: schema, cols: make([]colVec, len(schema.Cols)), cap: capHint}
}

// Reset truncates the chunk for refilling. Under the chunkPoison test
// hook it first scribbles over every payload so a retained reference
// into the recycled chunk corrupts results detectably.
func (c *chunk) Reset() {
	if chunkPoison {
		for i := range c.cols {
			v := &c.cols[i]
			for j := range v.data {
				v.data[j] = 0xDB
			}
			for j := range v.nums {
				v.nums[j] = 0xDBDBDBDBDBDBDBDB
			}
			for j := range v.kinds {
				v.kinds[j] = byte(value.KindNull)
			}
		}
	}
	for i := range c.cols {
		c.cols[i].reset()
	}
	c.n = 0
	c.sel = nil
}

// Full reports whether the chunk reached its target row capacity.
func (c *chunk) Full() bool { return c.n >= c.cap }

// Rows counts the logical rows (selection applied).
func (c *chunk) Rows() int {
	if c.sel != nil {
		return len(c.sel)
	}
	return c.n
}

// RowIdx maps a logical row position to its physical index.
func (c *chunk) RowIdx(k int) int {
	if c.sel != nil {
		return c.sel[k]
	}
	return k
}

// AppendRecord decodes one encoded heap record straight into the column
// vectors, with zero per-field allocation (arena bytes are bulk-copied;
// the seal string is amortised over the whole chunk). Records narrower
// than the schema pad with NULLs; wider records are rejected.
func (c *chunk) AppendRecord(rec []byte) error {
	filled := 0
	err := value.VisitTuple(rec, func(col int, k value.Kind, bits uint64, payload []byte) error {
		if col >= len(c.cols) {
			return fmt.Errorf("sql: chunk: record has more fields than schema (%d cols)", len(c.cols))
		}
		v := &c.cols[col]
		switch k {
		case value.KindNull:
			v.appendNull()
		case value.KindInt, value.KindFloat, value.KindBool:
			v.appendNum(k, bits)
		default:
			v.appendArena(k, payload)
		}
		filled = col + 1
		return nil
	})
	if err != nil {
		return err
	}
	for ; filled < len(c.cols); filled++ {
		c.cols[filled].appendNull()
	}
	c.n++
	return nil
}

// appendValue appends one value to column col without advancing the row
// count; callers append exactly one value per column, then bump n.
func (c *chunk) appendValue(col int, v value.Value) {
	vec := &c.cols[col]
	switch v.Kind() {
	case value.KindNull:
		vec.appendNull()
	case value.KindInt:
		vec.appendNum(value.KindInt, uint64(v.Int()))
	case value.KindFloat:
		vec.appendNum(value.KindFloat, math.Float64bits(v.Float()))
	case value.KindBool:
		bits := uint64(0)
		if v.Bool() {
			bits = 1
		}
		vec.appendNum(value.KindBool, bits)
	case value.KindText:
		vec.appendArena(value.KindText, []byte(v.Text()))
	case value.KindBytes:
		vec.appendArena(value.KindBytes, v.Bytes())
	}
}

// appendJoined appends one output row of a join: the left side copied
// column-wise from a chunk row (arena bytes move without re-encoding or
// sealing), the right side from a build tuple.
func (c *chunk) appendJoined(left *chunk, lrow int, right value.Tuple) {
	for i := range left.cols {
		src := &left.cols[i]
		dst := &c.cols[i]
		switch k := value.Kind(src.kinds[lrow]); k {
		case value.KindNull:
			dst.appendNull()
		case value.KindInt, value.KindFloat, value.KindBool:
			dst.appendNum(k, src.nums[lrow])
		default:
			dst.appendArena(k, src.payload(lrow))
		}
	}
	off := len(left.cols)
	for i := off; i < len(c.cols); i++ {
		if i-off < len(right) {
			c.appendValue(i, right[i-off])
		} else {
			c.cols[i].appendNull()
		}
	}
	c.n++
}

// Value materialises one cell. The result is safe to retain: numeric
// kinds copy into the Value, TEXT substrings the sealed arena string,
// BYTES copies its payload.
func (c *chunk) Value(col, row int) value.Value {
	v := &c.cols[col]
	switch value.Kind(v.kinds[row]) {
	case value.KindNull:
		return value.Null
	case value.KindInt:
		return value.NewInt(int64(v.nums[row]))
	case value.KindFloat:
		return value.NewFloat(math.Float64frombits(v.nums[row]))
	case value.KindBool:
		return value.NewBool(v.nums[row] != 0)
	case value.KindText:
		return value.NewText(v.text(row))
	default:
		return value.NewBytes(append([]byte(nil), v.payload(row)...))
	}
}

// ReadRow fills dst (len == schema width) with the row's values.
func (c *chunk) ReadRow(row int, dst value.Tuple) {
	for i := range c.cols {
		dst[i] = c.Value(i, row)
	}
}

// ReadCols fills only the listed columns of dst; the rest keep whatever
// they held. Filters use it so a predicate touching two columns of a
// wide schema does not pay for the other columns every row.
func (c *chunk) ReadCols(row int, cols []int, dst value.Tuple) {
	for _, i := range cols {
		dst[i] = c.Value(i, row)
	}
}

// TupleAt materialises one row as a freshly allocated, safely retainable
// tuple.
func (c *chunk) TupleAt(row int) value.Tuple {
	t := make(value.Tuple, len(c.cols))
	c.ReadRow(row, t)
	return t
}
