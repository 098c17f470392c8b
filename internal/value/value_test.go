package value

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindInt: "INT", KindFloat: "FLOAT",
		KindText: "TEXT", KindBytes: "BYTES", KindBool: "BOOL",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestAccessors(t *testing.T) {
	if got := NewInt(42).Int(); got != 42 {
		t.Errorf("Int() = %d, want 42", got)
	}
	if got := NewFloat(2.5).Float(); got != 2.5 {
		t.Errorf("Float() = %g, want 2.5", got)
	}
	if got := NewInt(3).Float(); got != 3 {
		t.Errorf("int widened Float() = %g, want 3", got)
	}
	if got := NewText("abc").Text(); got != "abc" {
		t.Errorf("Text() = %q, want abc", got)
	}
	if got := NewBytes([]byte{1, 2}).Bytes(); !bytes.Equal(got, []byte{1, 2}) {
		t.Errorf("Bytes() = %v", got)
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("Bool() round-trip failed")
	}
	if !Null.IsNull() || NewInt(0).IsNull() {
		t.Error("IsNull misbehaves")
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Int on text", func() { NewText("x").Int() })
	mustPanic("Text on int", func() { NewInt(1).Text() })
	mustPanic("Float on text", func() { NewText("x").Float() })
	mustPanic("Bool on int", func() { NewInt(1).Bool() })
	mustPanic("Bytes on text", func() { NewText("x").Bytes() })
}

func TestString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewInt(-7), "-7"},
		{NewFloat(1.5), "1.5"},
		{NewText("hi"), "hi"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
		{NewBytes([]byte{0xAB}), "x'ab'"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.kind, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Null, Null, 0},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewFloat(2.5), -1},
		{NewInt(2), NewFloat(2.0), 0},
		{NewInt(2), NewFloat(2.5), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{NewText("abc"), NewText("abd"), -1},
		{NewText("abc"), NewText("abc"), 0},
		{NewBytes([]byte{1}), NewBytes([]byte{1, 0}), -1},
		{NewBytes([]byte{2}), NewBytes([]byte{1, 9}), 1},
		{NewBool(false), NewBool(true), -1},
		// cross-kind, non-numeric: order by kind
		{NewInt(9), NewText("a"), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if !Equal(NewText("x"), NewText("x")) || Equal(NewInt(1), NewInt(2)) {
		t.Error("Equal misbehaves")
	}
}

func TestAsNumeric(t *testing.T) {
	if f, ok := NewInt(4).AsNumeric(); !ok || f != 4 {
		t.Errorf("AsNumeric int = %g,%v", f, ok)
	}
	if f, ok := NewFloat(4.5).AsNumeric(); !ok || f != 4.5 {
		t.Errorf("AsNumeric float = %g,%v", f, ok)
	}
	if f, ok := NewText(" 12.25 ").AsNumeric(); !ok || f != 12.25 {
		t.Errorf("AsNumeric text = %g,%v", f, ok)
	}
	if _, ok := NewText("ketone").AsNumeric(); ok {
		t.Error("AsNumeric on non-numeric text should fail")
	}
	if _, ok := Null.AsNumeric(); ok {
		t.Error("AsNumeric on NULL should fail")
	}
}

func roundTrip(t *testing.T, v Value) {
	t.Helper()
	enc := v.Encode(nil)
	got, n, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode(%v): %v", v, err)
	}
	if n != len(enc) {
		t.Errorf("Decode(%v) consumed %d of %d", v, n, len(enc))
	}
	if !Equal(got, v) || got.Kind() != v.Kind() {
		t.Errorf("round trip %v -> %v", v, got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, v := range []Value{
		Null, NewInt(0), NewInt(-1), NewInt(math.MaxInt64),
		NewFloat(0), NewFloat(-3.75), NewFloat(math.Inf(1)),
		NewText(""), NewText("enzyme"), NewText("π × 10"),
		NewBytes(nil), NewBytes([]byte{0, 1, 2, 255}),
		NewBool(true), NewBool(false),
	} {
		roundTrip(t, v)
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := [][]byte{
		{},
		{byte(KindInt), 1, 2},       // short fixed-width int (legacy form)
		{byte(KindBool), 1},         // short fixed-width bool (legacy form)
		{byte(KindFloat), 1},        // short float
		{byte(KindText), 0xFF},      // corrupt varint / length
		{byte(KindText), 0x05, 'a'}, // length overruns
		{0x77},                      // unknown kind
		{wireIntVar},                // varint int with no payload
		{wireIntVar, 0x80},          // varint int cut inside the varint
		{wireIntVar, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, // varint overflows 64 bits
		{wireBoolVar},       // varint bool with no payload
		{wireBoolVar, 0x80}, // varint bool cut inside the varint
	}
	for i, p := range bad {
		if _, _, err := Decode(p); err == nil {
			t.Errorf("case %d: expected decode error", i)
		}
	}
}

func TestQuickValueRoundTrip(t *testing.T) {
	f := func(i int64, fl float64, s string, b []byte, bo bool) bool {
		if math.IsNaN(fl) {
			fl = 0
		}
		for _, v := range []Value{NewInt(i), NewFloat(fl), NewText(s), NewBytes(b), NewBool(bo)} {
			enc := v.Encode(nil)
			got, n, err := Decode(enc)
			if err != nil || n != len(enc) || !Equal(got, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeKeyOrderPreserving(t *testing.T) {
	f := func(a, b int64) bool {
		ka := NewInt(a).EncodeKey(nil)
		kb := NewInt(b).EncodeKey(nil)
		return sign(bytes.Compare(ka, kb)) == sign(Compare(NewInt(a), NewInt(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("int keys: %v", err)
	}
	g := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ka := NewFloat(a).EncodeKey(nil)
		kb := NewFloat(b).EncodeKey(nil)
		return sign(bytes.Compare(ka, kb)) == sign(Compare(NewFloat(a), NewFloat(b)))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Errorf("float keys: %v", err)
	}
	h := func(a, b string) bool {
		ka := NewText(a).EncodeKey(nil)
		kb := NewText(b).EncodeKey(nil)
		return sign(bytes.Compare(ka, kb)) == sign(Compare(NewText(a), NewText(b)))
	}
	if err := quick.Check(h, nil); err != nil {
		t.Errorf("text keys: %v", err)
	}
}

func TestEncodeKeyCrossNumeric(t *testing.T) {
	// INT and FLOAT keys must interleave by magnitude.
	ka := NewInt(2).EncodeKey(nil)
	kb := NewFloat(2.5).EncodeKey(nil)
	kc := NewInt(3).EncodeKey(nil)
	if !(bytes.Compare(ka, kb) < 0 && bytes.Compare(kb, kc) < 0) {
		t.Error("numeric key interleaving broken")
	}
}

func TestEncodeKeyEmbeddedZeros(t *testing.T) {
	a := NewText("a\x00b").EncodeKey(nil)
	b := NewText("a").EncodeKey(nil)
	c := NewText("a\x00").EncodeKey(nil)
	if !(bytes.Compare(b, c) < 0 && bytes.Compare(c, a) < 0) {
		t.Error("zero-escaped text keys misordered")
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestTupleRoundTrip(t *testing.T) {
	tup := Tuple{NewInt(1), NewText("enzyme"), Null, NewFloat(2.5), NewBool(true)}
	enc := tup.Encode(nil)
	got, err := DecodeTuple(enc)
	if err != nil {
		t.Fatal(err)
	}
	if CompareTuples(tup, got) != 0 {
		t.Errorf("tuple round trip: got %v", got)
	}
}

func TestTupleDecodeErrors(t *testing.T) {
	if _, err := DecodeTuple(nil); err == nil {
		t.Error("empty input should fail")
	}
	// count says 2 but only 1 value present
	enc := Tuple{NewInt(5)}.Encode(nil)
	enc[0] = 2
	if _, err := DecodeTuple(enc); err == nil {
		t.Error("truncated tuple should fail")
	}
}

func TestQuickTupleRoundTrip(t *testing.T) {
	f := func(ints []int64, strs []string) bool {
		var tup Tuple
		for _, i := range ints {
			tup = append(tup, NewInt(i))
		}
		for _, s := range strs {
			tup = append(tup, NewText(s))
		}
		got, err := DecodeTuple(tup.Encode(nil))
		return err == nil && CompareTuples(tup, got) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleClone(t *testing.T) {
	b := []byte{1, 2, 3}
	tup := Tuple{NewBytes(b), NewText("x")}
	cl := tup.Clone()
	b[0] = 9
	if cl[0].Bytes()[0] == 9 {
		t.Error("Clone shares BYTES storage")
	}
	if CompareTuples(tup[1:], cl[1:]) != 0 {
		t.Error("Clone text mismatch")
	}
}

func TestCompareTuplesPrefix(t *testing.T) {
	a := Tuple{NewInt(1)}
	b := Tuple{NewInt(1), NewInt(2)}
	if CompareTuples(a, b) != -1 || CompareTuples(b, a) != 1 {
		t.Error("prefix ordering broken")
	}
	if CompareTuples(a, a) != 0 {
		t.Error("self compare nonzero")
	}
	if CompareTuples(Tuple{NewInt(2)}, b) != 1 {
		t.Error("field ordering broken")
	}
}
