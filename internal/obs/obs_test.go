package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketFor(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0},
		{999, 0},                        // sub-microsecond
		{1000, 1},                       // 1 µs -> (0.5, 1] edge... bucket 1
		{1999, 1},                       // still < 2 µs
		{2000, 2},                       // 2 µs
		{1_000_000, 10},                 // 1 ms = 1000 µs, Len64(1000)=10
		{1_000_000_000, 20},             // 1 s
		{1 << 62, HistogramBuckets - 1}, // clamps to the last bucket
	}
	for _, c := range cases {
		if got := bucketFor(c.ns); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	var h Histogram
	// 90 fast (≈1µs) and 10 slow (≈1ms) samples.
	for i := 0; i < 90; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.Max() != time.Millisecond {
		t.Errorf("max = %s, want 1ms", s.Max())
	}
	wantSum := 90*uint64(time.Microsecond) + 10*uint64(time.Millisecond)
	if s.SumNanos != wantSum {
		t.Errorf("sum = %d, want %d", s.SumNanos, wantSum)
	}
	if mean := s.Mean(); mean != time.Duration(wantSum/100) {
		t.Errorf("mean = %s", mean)
	}
	// p50 must land in the fast bucket (≤ 2µs upper edge), p99 in the
	// slow one (upper edge ≥ 1ms).
	if p50 := s.Quantile(0.50); p50 > 2*time.Microsecond {
		t.Errorf("p50 = %s, want <= 2µs", p50)
	}
	if p99 := s.Quantile(0.99); p99 < time.Millisecond {
		t.Errorf("p99 = %s, want >= 1ms", p99)
	}
	// Negative durations clamp to zero rather than corrupting the sum.
	h.Observe(-time.Second)
	if s2 := h.Snapshot(); s2.SumNanos != wantSum || s2.Count != 101 {
		t.Errorf("after negative observe: sum=%d count=%d", s2.SumNanos, s2.Count)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Mean() != 0 || s.Max() != 0 || s.Quantile(0.99) != 0 {
		t.Errorf("empty histogram: mean=%s max=%s p99=%s", s.Mean(), s.Max(), s.Quantile(0.99))
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w+1) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Errorf("count = %d, want %d", s.Count, workers*per)
	}
	var bucketSum uint64
	for _, n := range s.Buckets {
		bucketSum += n
	}
	if bucketSum != s.Count {
		t.Errorf("bucket sum %d != count %d", bucketSum, s.Count)
	}
	if s.Max() != workers*time.Microsecond {
		t.Errorf("max = %s, want %dµs", s.Max(), workers)
	}
}

func TestRegistrySnapshotAndMetrics(t *testing.T) {
	r := NewRegistry()
	handles := r.Pool.Bind(2)
	handles[0].Hits.Add(3)
	handles[1].Hits.Inc()
	handles[1].Misses.Add(2)
	handles[0].Evictions.Inc()
	r.WAL.Appends.Add(5)
	r.WAL.Bytes.Add(1024)
	r.Heap.PagesScanned.Add(7)
	r.Index.BTreeSearches.Inc()
	r.Query.Queries.Add(2)
	r.Query.Latency.Observe(time.Millisecond)
	r.Ingest.Docs.Add(11)
	r.Exec.JoinSwitches.Add(3)

	s := r.Snapshot()
	if s.Pool.Shards != 2 || s.Pool.Hits != 4 || s.Pool.Misses != 2 || s.Pool.Evictions != 1 {
		t.Errorf("pool snapshot = %+v", s.Pool)
	}
	if len(s.Pool.PerShard) != 2 || s.Pool.PerShard[0].Hits != 3 || s.Pool.PerShard[1].Misses != 2 {
		t.Errorf("per-shard = %+v", s.Pool.PerShard)
	}

	m := s.Metrics()
	want := map[string]float64{
		"pool.shards":          2,
		"pool.hits":            4,
		"pool.misses":          2,
		"pool.evictions":       1,
		"wal.appends":          5,
		"wal.bytes":            1024,
		"heap.pages_scanned":   7,
		"index.btree_searches": 1,
		"query.count":          2,
		"ingest.docs":          11,
		"exec.join_switches":   3,
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("metrics[%q] = %v, want %v", k, m[k], v)
		}
	}
	for _, k := range []string{"query.latency_mean_us", "query.latency_p50_us",
		"query.latency_p95_us", "query.latency_p99_us", "query.latency_max_us"} {
		if _, ok := m[k]; !ok {
			t.Errorf("metrics missing %q", k)
		}
	}

	out := FormatMetrics(m)
	if !strings.Contains(out, "pool.hits") || !strings.Contains(out, "wal.bytes") {
		t.Errorf("FormatMetrics output missing keys:\n%s", out)
	}
	// Sorted output: pool.* precedes wal.*.
	if strings.Index(out, "pool.hits") > strings.Index(out, "wal.bytes") {
		t.Error("FormatMetrics output not sorted")
	}
}

func TestRegistryLatencyKeysAbsentWhenIdle(t *testing.T) {
	m := NewRegistry().Snapshot().Metrics()
	if _, ok := m["query.latency_mean_us"]; ok {
		t.Error("latency keys should be absent with zero observations")
	}
}
