package value

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// legacyEncode hand-encodes t the way every file written before the
// compact wire format holds it: INT and BOOL as a kind byte and 8
// big-endian bytes. Nothing in the package writes this form any more.
func legacyEncode(t Tuple) []byte {
	out := binary.AppendUvarint(nil, uint64(len(t)))
	for _, v := range t {
		switch v.kind {
		case KindInt, KindBool:
			out = binary.BigEndian.AppendUint64(append(out, byte(v.kind)), uint64(v.i))
		default:
			out = v.Encode(out)
		}
	}
	return out
}

// tupleFromBytes turns fuzz input into a tuple: a kind byte, then a
// length byte and that many payload bytes, repeated. Short INT payloads
// give the small values that take the one-byte varint arm, long ones
// reach both ends of int64.
func tupleFromBytes(data []byte) Tuple {
	var t Tuple
	for len(data) > 0 && len(t) < 12 {
		kind := Kind(data[0] % 6)
		data = data[1:]
		var payload []byte
		if len(data) > 0 {
			n := int(data[0]) % 12
			data = data[1:]
			if n > len(data) {
				n = len(data)
			}
			payload, data = data[:n], data[n:]
		}
		var word [8]byte
		copy(word[8-min(len(payload), 8):], payload)
		bits := binary.BigEndian.Uint64(word[:])
		switch kind {
		case KindNull:
			t = append(t, Null)
		case KindInt:
			if len(payload) > 0 && payload[0]&0x80 != 0 && len(payload) < 8 {
				bits |= ^uint64(0) << (8 * len(payload)) // sign-extend
			}
			t = append(t, NewInt(int64(bits)))
		case KindFloat:
			if f := math.Float64frombits(bits); f == f { // NaN never equals itself
				t = append(t, NewFloat(f))
			}
		case KindText:
			t = append(t, NewText(string(payload)))
		case KindBytes:
			t = append(t, NewBytes(append([]byte{}, payload...)))
		case KindBool:
			t = append(t, NewBool(bits&1 == 1))
		}
	}
	return t
}

// checkWire asserts that every reader of the wire form agrees on rec,
// an encoding of t: DecodeTuple gives t back, VisitTuple and fieldAt
// report each field as Decode does, and AppendFieldKey produces the very
// bytes EncodeKey does — index keys must not move by one byte between
// the two forms, or trees built over one would misorder the other.
func checkWire(t *testing.T, form string, tup Tuple, rec []byte) {
	t.Helper()
	got, err := DecodeTuple(rec)
	if err != nil {
		t.Fatalf("%s: DecodeTuple(%x): %v", form, rec, err)
	}
	if len(got) != len(tup) {
		t.Fatalf("%s: decoded %d fields, want %d", form, len(got), len(tup))
	}
	for i := range tup {
		if got[i].kind != tup[i].kind || Compare(got[i], tup[i]) != 0 {
			t.Fatalf("%s: field %d decoded as %v (%s), want %v (%s)", form, i, got[i], got[i].kind, tup[i], tup[i].kind)
		}
	}
	visited := 0
	err = VisitTuple(rec, func(col int, k Kind, bits uint64, payload []byte) error {
		want := tup[col]
		if col != visited || k != want.kind {
			t.Fatalf("%s: visit %d reports column %d kind %s, want kind %s", form, visited, col, k, want.kind)
		}
		switch k {
		case KindInt, KindBool:
			if int64(bits) != want.i {
				t.Fatalf("%s: visit %d bits %d, want %d", form, col, int64(bits), want.i)
			}
		case KindFloat:
			if bits != math.Float64bits(want.f) {
				t.Fatalf("%s: visit %d float bits %x, want %x", form, col, bits, math.Float64bits(want.f))
			}
		case KindText:
			if string(payload) != want.s {
				t.Fatalf("%s: visit %d text %q, want %q", form, col, payload, want.s)
			}
		case KindBytes:
			if !bytes.Equal(payload, want.b) {
				t.Fatalf("%s: visit %d bytes %x, want %x", form, col, payload, want.b)
			}
		}
		visited++
		return nil
	})
	if err != nil || visited != len(tup) {
		t.Fatalf("%s: VisitTuple visited %d of %d fields, err %v", form, visited, len(tup), err)
	}
	for i, want := range tup {
		k, bits, payload, err := fieldAt(rec, i)
		if err != nil || k != want.kind {
			t.Fatalf("%s: fieldAt(%d) = kind %s, err %v; want kind %s", form, i, k, err, want.kind)
		}
		if (k == KindInt || k == KindBool) && int64(bits) != want.i {
			t.Fatalf("%s: fieldAt(%d) bits %d, want %d", form, i, int64(bits), want.i)
		}
		if k == KindText && string(payload) != want.s {
			t.Fatalf("%s: fieldAt(%d) text %q, want %q", form, i, payload, want.s)
		}
		key, err := AppendFieldKey([]byte("prefix"), rec, i)
		if wantKey := want.EncodeKey([]byte("prefix")); err != nil || !bytes.Equal(key, wantKey) {
			t.Fatalf("%s: AppendFieldKey(%d) = %x, err %v; EncodeKey = %x", form, i, key, err, wantKey)
		}
	}
	if _, _, _, err := fieldAt(rec, len(tup)); err == nil {
		t.Fatalf("%s: fieldAt past the last column succeeded", form)
	}
}

// FuzzTupleWire: for any tuple, the compact form Encode writes and the
// fixed-width form old files hold both read back to it through every
// parser, and arbitrary bytes never panic one.
func FuzzTupleWire(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 5, 1, 2, 0x30, 0x39, 1, 8, 0x80, 0, 0, 0, 0, 0, 0, 0})                 // 5, 12345, MinInt64
	f.Add([]byte{3, 5, 'h', 'e', 'l', 'l', 'o', 0, 5, 1, 1, 2, 8, 0x40, 4, 0, 0, 0, 0, 0, 0}) // text, NULL, TRUE, 2.5
	f.Add([]byte{4, 3, 0, 0xFF, 0, 1, 1, 0xFF, 1, 8, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		tup := tupleFromBytes(data)
		checkWire(t, "compact", tup, tup.Encode(nil))
		checkWire(t, "legacy", tup, legacyEncode(tup))
		// The input itself as a record: garbage in, error or tuple out.
		raw, derr := DecodeTuple(data)
		verr := VisitTuple(data, func(int, Kind, uint64, []byte) error { return nil })
		if (derr == nil) != (verr == nil) {
			t.Fatalf("DecodeTuple(%x) err %v but VisitTuple err %v", data, derr, verr)
		}
		if derr == nil {
			checkWire(t, "re-encoded", raw, raw.Encode(nil))
		}
	})
}

func TestCompactIntWidths(t *testing.T) {
	var all Tuple // every width boundary in one record, for the inline arms of VisitTuple
	for _, tc := range []struct {
		v    int64
		size int // wire tag + varint
	}{
		{0, 2}, {-1, 2}, {63, 2}, {-64, 2}, {64, 3}, {-65, 3}, {8191, 3}, {-8192, 3}, {8192, 4}, {-8193, 4},
		{12345, 4}, {math.MaxInt64, 11}, {math.MinInt64, 11},
	} {
		all = append(all, NewInt(tc.v), NewBool(tc.v&1 == 0))
		enc := NewInt(tc.v).Encode(nil)
		if len(enc) != tc.size {
			t.Errorf("INT %d encodes to %d bytes, want %d", tc.v, len(enc), tc.size)
		}
		got, n, err := Decode(enc)
		if err != nil || n != len(enc) || got.Kind() != KindInt || got.Int() != tc.v {
			t.Errorf("INT %d decodes to %v (%d bytes, err %v)", tc.v, got, n, err)
		}
	}
	if enc := NewBool(true).Encode(nil); len(enc) != 2 {
		t.Errorf("BOOL encodes to %d bytes, want 2", len(enc))
	}
	checkWire(t, "compact", all, all.Encode(nil))
	checkWire(t, "legacy", all, legacyEncode(all))
}

func TestLegacyFormStillDecodes(t *testing.T) {
	tup := Tuple{NewInt(-7), NewText("enzyme"), Null, NewFloat(2.5), NewBool(true), NewInt(math.MinInt64)}
	legacy := legacyEncode(tup)
	if want := 1 + 9 + 8 + 1 + 9 + 9 + 9; len(legacy) != want {
		t.Fatalf("hand-encoded legacy tuple is %d bytes, want %d", len(legacy), want)
	}
	checkWire(t, "legacy", tup, legacy)
	// Decoding is the only thing done with the old tags: what comes back
	// re-encodes compact.
	got, err := DecodeTuple(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(nil), tup.Encode(nil)) || bytes.Equal(got.Encode(nil), legacy) {
		t.Error("a decoded legacy tuple did not re-encode to the compact form")
	}
}
