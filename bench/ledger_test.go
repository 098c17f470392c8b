package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 { // 1..n, shuffled order must not matter
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i*7919)%n + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		value float64 // rank of the picked sample, 1-based
		pct   float64
	}{
		{n: 5, value: 3, pct: 50},          // too few samples: the median, named p50
		{n: 10, value: 5.5, pct: 50},       // still too few
		{n: 11, value: 1, pct: 100.0 / 11}, // only the smallest has ten beyond it
		{n: 20, value: 10, pct: 50},
		{n: 200, value: 190, pct: 95},
		{n: 999, value: 989, pct: 100 * 989.0 / 999},
		{n: 1000, value: 990, pct: 99}, // from here on it is p99
		{n: 5000, value: 4950, pct: 99},
	} {
		v, pct := tail(ramp(tc.n))
		if v != tc.value || math.Abs(pct-tc.pct) > 1e-9 {
			t.Errorf("n=%d: got sample %v as p%.3f, want sample %v as p%.3f", tc.n, v, pct, tc.value, tc.pct)
		}
		if tc.n > tailBeyond {
			if beyond := tc.n - int(v); beyond < tailBeyond {
				t.Errorf("n=%d: only %d samples beyond the pick", tc.n, beyond)
			}
		}
	}
	if v, _ := tail(nil); v != 0 {
		t.Errorf("no samples: got %v", v)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{9, 1, 5}
	if got := median(in); got != 5 {
		t.Errorf("odd: got %v", got)
	}
	if !reflect.DeepEqual(in, []float64{9, 1, 5}) {
		t.Errorf("median reordered its input: %v", in)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: got %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	add := func(name string, start, end int64, parent int) int {
		tr.spans = append(tr.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: 1})
		return len(tr.spans) - 1
	}
	request := add("request", 0, 1000, -1)
	session := add("session", 2000, 2700, request) // a separate execution: not inside the parent's interval
	add("parse", 3000, 3050, session)
	add("exec", 3050, 3550, session)
	add("encode", 3600, 3700, request)
	add("xml", 4000, 4900, -1) // a root: part of nothing
	self := tr.selfTimes()
	want := []time.Duration{200, 150, 50, 500, 100, 900}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	// Self times of a tree add up to its root's duration.
	if sum := self[0] + self[1] + self[2] + self[3] + self[4]; sum != tr.spans[request].dur() {
		t.Errorf("self times under request sum to %v, request took %v", sum, tr.spans[request].dur())
	}

	path := t.TempDir() + "/trace.jsonl"
	if err := tr.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var back []span
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		back = append(back, s)
	}
	if !reflect.DeepEqual(back, tr.spans) {
		t.Errorf("trace file does not round-trip: %v", back)
	}
}

func TestCounterDeltas(t *testing.T) {
	before := counters{"wal.bytes": 100, "pool.hits": 7}
	after := counters{"wal.bytes": 350, "pool.hits": 7, "pool.misses": 2}
	d := after.delta(before)
	if want := (counters{"wal.bytes": 250, "pool.hits": 0, "pool.misses": 2}); !reflect.DeepEqual(d, want) {
		t.Errorf("delta %v, want %v", d, want)
	}
	total := counters{"wal.bytes": 1}
	total.add(d)
	total.add(d)
	if want := (counters{"wal.bytes": 501, "pool.hits": 0, "pool.misses": 4}); !reflect.DeepEqual(total, want) {
		t.Errorf("accumulated %v, want %v", total, want)
	}
}

func TestGeneratorsFollowTheSeed(t *testing.T) {
	ids := make([]string, 300)
	for i := range ids {
		ids[i] = string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	draw := func(seed int64) []string {
		p := newIDPicker(ids, seed)
		out := make([]string, 500)
		for i := range out {
			out[i] = p.next()
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed drew different ids")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds drew the same ids")
	}
	// Zipf: a few ids take most of the draws.
	count := map[string]int{}
	for _, id := range a {
		count[id]++
	}
	var freq []int
	for _, n := range count {
		freq = append(freq, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freq)))
	if top := freq[0] + freq[1] + freq[2]; top < len(a)/3 {
		t.Errorf("the three hottest ids took %d of %d draws: not skewed", top, len(a))
	}

	c1, err := genCorpus(sizes{Enzyme: 40}, 5)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := genCorpus(sizes{Enzyme: 40}, 5)
	c3, _ := genCorpus(sizes{Enzyme: 40}, 6)
	if c1.flats.Enzyme != c2.flats.Enzyme || c1.flats.Enzyme == c3.flats.Enzyme {
		t.Error("corpus does not follow the seed")
	}
	e1, e2 := newEvolver(c1.enzymes, 5), newEvolver(c2.enzymes, 5)
	for i := 0; i < 3; i++ {
		f1, n1, err := e1.step()
		if err != nil {
			t.Fatal(err)
		}
		f2, n2, _ := e2.step()
		if f1 != f2 || n1 != n2 || n1 != 5 {
			t.Fatalf("version %d differs between equal seeds, or changed %d entries, want 5", i+1, n1)
		}
	}
}

func TestEvolverJudgesReaders(t *testing.T) {
	c, err := genCorpus(sizes{Enzyme: 40}, 3)
	if err != nil {
		t.Fatal(err)
	}
	ev := newEvolver(c.enzymes, 3)
	if _, _, err := ev.step(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ev.step(); err != nil {
		t.Fatal(err)
	}
	untouched, volatile := c.enzymes[0].ID, c.enzymes[len(c.enzymes)-1].ID
	base := ev.base[volatile]
	seen := map[string]int{}
	for _, tc := range []struct {
		name, id, desc string
		ok             bool
	}{
		{"untouched as generated", untouched, ev.base[untouched], true},
		{"untouched with a rev", untouched, withRev(ev.base[untouched], 1), false},
		{"volatile at rev 2", volatile, withRev(base, 2), true},
		{"volatile back at rev 1", volatile, withRev(base, 1), false},
		{"volatile ahead of the newest version", volatile, withRev(base, 3), false},
		{"volatile with another text", volatile, "Something else.", false},
		{"an id nobody published", "0.0.0.0", "x", false},
	} {
		if err := ev.check(tc.id, tc.desc, seen); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok = %v", tc.name, err, tc.ok)
		}
	}
	if got, rev := splitRev(withRev("Alcohol dehydrogenase.", 12)); got != "Alcohol dehydrogenase." || rev != 12 {
		t.Errorf("splitRev undid withRev as %q rev %d", got, rev)
	}
}

func TestDigestIgnoresRowOrder(t *testing.T) {
	a := digest([][]string{{"1", "x"}, {"2", "y"}})
	b := digest([][]string{{"2", "y"}, {"1", "x"}})
	c := digest([][]string{{"1", "y"}, {"2", "x"}})
	if a != b || a == c {
		t.Errorf("digest: same rows %v, other rows %v", a == b, a == c)
	}
}
