// Package value defines the typed scalar values that flow through the
// XomatiQ relational engine: tuple fields, index keys, expression results.
//
// The paper's generic shredding schema distinguishes string and numeric
// data ("several databases store annotations that are of numeric type such
// as the length of a sequence"); Kind carries that distinction through the
// whole stack.
package value

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the scalar types supported by the engine.
type Kind uint8

// The supported kinds. Null sorts before every other value.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindText
	KindBytes
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindText:
		return "TEXT"
	case KindBytes:
		return "BYTES"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single typed scalar. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64 // Int, Bool (0/1)
	f    float64
	s    string // Text
	b    []byte // Bytes
}

// Null is the NULL value.
var Null = Value{}

// NewInt returns an INT value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a FLOAT value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewText returns a TEXT value.
func NewText(v string) Value { return Value{kind: KindText, s: v} }

// NewBytes returns a BYTES value. The slice is retained, not copied.
func NewBytes(v []byte) Value { return Value{kind: KindBytes, b: v} }

// NewBool returns a BOOL value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the INT payload. It panics on other kinds.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic("value: Int() on " + v.kind.String())
	}
	return v.i
}

// Float returns the FLOAT payload. INT values are widened.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.i)
	}
	panic("value: Float() on " + v.kind.String())
}

// Text returns the TEXT payload. It panics on other kinds.
func (v Value) Text() string {
	if v.kind != KindText {
		panic("value: Text() on " + v.kind.String())
	}
	return v.s
}

// Bytes returns the BYTES payload. It panics on other kinds.
func (v Value) Bytes() []byte {
	if v.kind != KindBytes {
		panic("value: Bytes() on " + v.kind.String())
	}
	return v.b
}

// Bool returns the BOOL payload. It panics on other kinds.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic("value: Bool() on " + v.kind.String())
	}
	return v.i != 0
}

// String renders the value for display. NULL renders as "NULL".
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindText:
		return v.s
	case KindBytes:
		return fmt.Sprintf("x'%x'", v.b)
	case KindBool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

// numericKinds reports whether both kinds are numeric (INT or FLOAT).
func numericKinds(a, b Kind) bool {
	num := func(k Kind) bool { return k == KindInt || k == KindFloat }
	return num(a) && num(b)
}

// Compare orders two values. NULL sorts first; values of different,
// non-numeric kinds order by kind. Numeric kinds compare by magnitude.
// The result is -1, 0 or +1.
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.kind != b.kind {
		if numericKinds(a.kind, b.kind) {
			return cmpFloat(a.Float(), b.Float())
		}
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindInt:
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		}
		return 0
	case KindFloat:
		return cmpFloat(a.f, b.f)
	case KindText:
		return strings.Compare(a.s, b.s)
	case KindBytes:
		return cmpBytes(a.b, b.b)
	case KindBool:
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		}
		return 0
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Equal reports whether two values compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// AsNumeric attempts to view the value as FLOAT: numeric kinds convert
// directly and TEXT is parsed. ok is false when no numeric view exists.
func (v Value) AsNumeric() (f float64, ok bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	case KindText:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		if err != nil {
			return 0, false
		}
		return f, true
	}
	return 0, false
}

// Wire tags: the first byte of every encoded field. Tags 0-5 are the
// Kind values themselves, which is all that files written before the
// compact format hold: there INT and BOOL carry 8 fixed big-endian
// bytes. Encode now writes INT and BOOL as zig-zag varints under two
// tags of their own and never emits the fixed-width forms again;
// splitField reads both, so old and new records mix freely in one heap
// page and no file carries a format version.
const (
	wireIntVar  = 6 // INT as zig-zag varint
	wireBoolVar = 7 // BOOL as zig-zag varint (0 or 1)
)

// Encode appends a self-delimiting binary encoding of v to dst.
// Layout: 1 wire tag, then a kind-specific payload.
func (v Value) Encode(dst []byte) []byte {
	switch v.kind {
	case KindInt:
		return binary.AppendVarint(append(dst, wireIntVar), v.i)
	case KindBool:
		return binary.AppendVarint(append(dst, wireBoolVar), v.i)
	case KindFloat:
		return binary.BigEndian.AppendUint64(append(dst, byte(KindFloat)), math.Float64bits(v.f))
	case KindText:
		dst = binary.AppendUvarint(append(dst, byte(KindText)), uint64(len(v.s)))
		return append(dst, v.s...)
	case KindBytes:
		dst = binary.AppendUvarint(append(dst, byte(KindBytes)), uint64(len(v.b)))
		return append(dst, v.b...)
	}
	return append(dst, byte(KindNull))
}

// splitField parses the field at the head of p: its kind, its numeric
// payload as bits (INT and BOOL as the two's-complement int64, FLOAT as
// IEEE-754 bits), and the extent of the field — a TEXT or BYTES payload
// is p[off:n], and n is the bytes the field occupies. n == 0 means p
// does not start with a whole field; errField says why. Every reader of
// the wire form goes through it, except VisitTuple's loop, which repeats
// the switch inline because a call per field is a third of a scan's
// decode time.
func splitField(p []byte) (k Kind, bits uint64, off, n int) {
	if len(p) == 0 {
		return 0, 0, 0, 0
	}
	switch tag := p[0]; tag {
	case byte(KindNull):
		return KindNull, 0, 1, 1
	case wireIntVar, wireBoolVar:
		k = KindInt
		if tag == wireBoolVar {
			k = KindBool
		}
		if len(p) > 1 && p[1] < 0x80 { // one byte: no need for the decoder's loop
			u := uint64(p[1])
			return k, u>>1 ^ -(u & 1), 2, 2
		}
		i, sz := binary.Varint(p[1:])
		if sz <= 0 {
			return 0, 0, 0, 0
		}
		return k, uint64(i), 1 + sz, 1 + sz
	case byte(KindInt), byte(KindBool), byte(KindFloat):
		if len(p) < 9 {
			return 0, 0, 0, 0
		}
		return Kind(tag), binary.BigEndian.Uint64(p[1:9]), 9, 9
	case byte(KindText), byte(KindBytes):
		m, sz := binary.Uvarint(p[1:])
		if sz <= 0 || uint64(len(p)-1-sz) < m {
			return 0, 0, 0, 0
		}
		return Kind(tag), 0, 1 + sz, 1 + sz + int(m)
	}
	return 0, 0, 0, 0
}

// errField describes why splitField refused p.
func errField(p []byte) error {
	switch {
	case len(p) == 0:
		return errors.New("truncated input")
	case p[0] > wireBoolVar:
		return fmt.Errorf("unknown wire tag %d", p[0])
	}
	return errors.New("short or corrupt field")
}

// Decode reads one encoded value from p, returning the value and the
// number of bytes consumed.
func Decode(p []byte) (Value, int, error) {
	k, bits, off, n := splitField(p)
	if n == 0 {
		return Null, 0, fmt.Errorf("value: decode: %w", errField(p))
	}
	return WireValue(k, bits, p[off:n]), n, nil
}

// WireValue materialises one field as VisitTuple hands it over (kind,
// bits, payload); TEXT and BYTES payloads are copied.
func WireValue(k Kind, bits uint64, payload []byte) Value {
	switch k {
	case KindInt, KindBool:
		return Value{kind: k, i: int64(bits)}
	case KindFloat:
		return NewFloat(math.Float64frombits(bits))
	case KindText:
		return NewText(string(payload))
	case KindBytes:
		return NewBytes(append([]byte(nil), payload...))
	}
	return Null
}

// Key-encoding tags, shared by EncodeKey and AppendFieldKey.
const (
	tagNull    = 0x00
	tagNumeric = 0x10
	tagText    = 0x20
	tagBytes   = 0x30
	tagBool    = 0x40
)

// EncodeKey appends an order-preserving binary encoding of v to dst:
// bytes.Compare on two encoded keys matches Compare on the values
// (for values of the same kind, and NULL-first across kinds). Numeric
// kinds share a common prefix tag so INT and FLOAT interleave correctly.
func (v Value) EncodeKey(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, tagNull)
	case KindInt, KindFloat:
		return appendNumericKey(dst, math.Float64bits(v.Float()))
	case KindText:
		dst = append(dst, tagText)
		return appendEscaped(dst, []byte(v.s))
	case KindBytes:
		dst = append(dst, tagBytes)
		return appendEscaped(dst, v.b)
	case KindBool:
		return append(dst, tagBool, byte(v.i))
	}
	return dst
}

// AppendFieldKey appends the EncodeKey form of field col of an encoded
// tuple directly from its wire bytes, without materialising a Value (no
// string allocation for TEXT fields). Index rebuilds use it to key every
// record of a heap scan with near-zero garbage.
func AppendFieldKey(dst, rec []byte, col int) ([]byte, error) {
	k, bits, payload, err := fieldAt(rec, col)
	if err != nil {
		return dst, err
	}
	return AppendWireKey(dst, k, bits, payload), nil
}

// AppendWireKey appends the EncodeKey form of one field as VisitTuple
// hands it over (kind, bits, payload).
func AppendWireKey(dst []byte, k Kind, bits uint64, payload []byte) []byte {
	switch k {
	case KindInt:
		return appendNumericKey(dst, math.Float64bits(float64(int64(bits))))
	case KindFloat:
		return appendNumericKey(dst, bits)
	case KindBool:
		return append(dst, tagBool, byte(bits))
	case KindText:
		return appendEscaped(append(dst, tagText), payload)
	case KindBytes:
		return appendEscaped(append(dst, tagBytes), payload)
	}
	return append(dst, tagNull)
}

// appendNumericKey appends the order-preserving form of float64 bits.
func appendNumericKey(dst []byte, bits uint64) []byte {
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	return binary.BigEndian.AppendUint64(append(dst, tagNumeric), bits)
}

// fieldAt parses field col of an encoded tuple (see splitField for the
// results) without decoding the fields around it.
func fieldAt(rec []byte, col int) (k Kind, bits uint64, payload []byte, err error) {
	n, sz := binary.Uvarint(rec)
	if sz <= 0 {
		return 0, 0, nil, fmt.Errorf("value: field at: corrupt count")
	}
	if uint64(col) >= n {
		return 0, 0, nil, fmt.Errorf("value: field at: column %d of %d", col, n)
	}
	p := rec[sz:]
	for i := 0; ; i++ {
		k, bits, off, used := splitField(p)
		if used == 0 {
			return 0, 0, nil, fmt.Errorf("value: field at: %w", errField(p))
		}
		if i == col {
			return k, bits, p[off:used], nil
		}
		p = p[used:]
	}
}

// appendEscaped writes p with 0x00 escaped as 0x00 0xFF and terminated by
// 0x00 0x00, preserving lexicographic order for variable-length keys.
func appendEscaped(dst, p []byte) []byte {
	for _, c := range p {
		if c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x00)
}

// Tuple is an ordered list of values: one table row or index entry.
type Tuple []Value

// Encode appends the binary encoding of the tuple (field count, then each
// value) to dst.
func (t Tuple) Encode(dst []byte) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(t)))
	dst = append(dst, buf[:n]...)
	for _, v := range t {
		dst = v.Encode(dst)
	}
	return dst
}

// DecodeTuple decodes a tuple produced by Tuple.Encode.
func DecodeTuple(p []byte) (Tuple, error) {
	n, sz := binary.Uvarint(p)
	if sz <= 0 {
		return nil, fmt.Errorf("value: decode tuple: corrupt count")
	}
	p = p[sz:]
	if n > uint64(len(p)) { // every field takes a byte at least
		return nil, fmt.Errorf("value: decode tuple: %d fields in %d bytes", n, len(p))
	}
	t := make(Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		v, used, err := Decode(p)
		if err != nil {
			return nil, fmt.Errorf("value: decode tuple field %d: %w", i, err)
		}
		t = append(t, v)
		p = p[used:]
	}
	return t, nil
}

// VisitTuple walks an encoded tuple field by field without materialising
// Values, calling visit once per field with the raw payload: INT and BOOL
// pass their value as bits (whichever wire form held it), FLOAT passes
// its IEEE-754 bits, TEXT and BYTES pass the payload slice (aliasing rec,
// so the callee must copy anything it keeps), NULL passes neither. The
// columnar chunk decoder uses it to fill column vectors straight from
// heap records with zero per-field allocation.
func VisitTuple(rec []byte, visit func(col int, k Kind, bits uint64, payload []byte) error) error {
	n, sz := binary.Uvarint(rec)
	if sz <= 0 {
		return fmt.Errorf("value: visit tuple: corrupt count")
	}
	p := rec[sz:]
	for i := 0; uint64(i) < n; i++ {
		// splitField, inline.
		var (
			k       Kind
			bits    uint64
			payload []byte
			used    int
		)
		if len(p) == 0 {
			return fmt.Errorf("value: visit tuple: %w", errField(p))
		}
		switch tag := p[0]; tag {
		case byte(KindNull):
			used = 1
		case wireIntVar, wireBoolVar:
			k = KindInt
			if tag == wireBoolVar {
				k = KindBool
			}
			// Ids, positions and depths — most of what the generic schema
			// stores — fit one or two varint bytes; those skip the general
			// decoder's loop.
			if len(p) > 1 && p[1] < 0x80 {
				u := uint64(p[1])
				bits, used = u>>1^-(u&1), 2
				break
			}
			if len(p) > 2 && p[2] < 0x80 {
				u := uint64(p[1]&0x7f) | uint64(p[2])<<7
				bits, used = u>>1^-(u&1), 3
				break
			}
			v, vsz := binary.Varint(p[1:])
			if vsz <= 0 {
				return fmt.Errorf("value: visit tuple: %w", errField(p))
			}
			bits, used = uint64(v), 1+vsz
		case byte(KindInt), byte(KindBool), byte(KindFloat):
			if len(p) < 9 {
				return fmt.Errorf("value: visit tuple: %w", errField(p))
			}
			k, bits, used = Kind(tag), binary.BigEndian.Uint64(p[1:9]), 9
		case byte(KindText), byte(KindBytes):
			m, msz := binary.Uvarint(p[1:])
			if msz <= 0 || uint64(len(p)-1-msz) < m {
				return fmt.Errorf("value: visit tuple: %w", errField(p))
			}
			used = 1 + msz + int(m)
			k, payload = Kind(tag), p[1+msz:used]
		default:
			return fmt.Errorf("value: visit tuple: %w", errField(p))
		}
		if err := visit(i, k, bits, payload); err != nil {
			return err
		}
		p = p[used:]
	}
	return nil
}

// Clone returns a deep copy of the tuple (BYTES payloads are copied).
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	for i, v := range t {
		if v.kind == KindBytes {
			b := make([]byte, len(v.b))
			copy(b, v.b)
			out[i] = NewBytes(b)
		} else {
			out[i] = v
		}
	}
	return out
}

// CompareTuples orders tuples field by field; shorter prefixes sort first.
func CompareTuples(a, b Tuple) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}
