package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"xomatiq/internal/index/btree"
	"xomatiq/internal/index/inverted"
	"xomatiq/internal/sql"
	"xomatiq/internal/storage/bufpool"
	"xomatiq/internal/storage/disk"
	"xomatiq/internal/storage/heap"
	"xomatiq/internal/storage/page"
	"xomatiq/internal/storage/wal"
	"xomatiq/internal/value"
)

// Storage and operator probes: fixed-count loops over scratch files
// through each layer's public functions, nanoseconds per unit of work.
// They are the same in every workload's traced pass; they are there so
// that a change to one layer shows on one line that no other layer can
// move, whatever the workloads above it do.

// perUnit times fn three times and returns the median nanoseconds per
// unit; fn does units units of work per call.
func perUnit(units int, fn func() error) (float64, error) {
	var ns []float64
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(start))/float64(units))
	}
	return median(ns), nil
}

// probes runs every probe in dir and adds its metrics to out.
func probes(dir string, out map[string]metric) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, probe := range []func(string, func(string, string, float64)) error{
		probePage, probePool, probeWAL, probeHeap, probeBTree, probeInverted, probeValue, probeSQL,
	} {
		if err := probe(dir, func(name, unit string, v float64) {
			out[name] = metric{Value: v, Unit: unit, Samples: 3}
		}); err != nil {
			return err
		}
	}
	return nil
}

func probePage(_ string, put func(string, string, float64)) error {
	rec := make([]byte, 64)
	p := page.New(page.KindHeap)
	const rounds = 2000
	slots := 0
	for ; ; slots++ { // how many records fit
		if _, err := p.Insert(rec); err != nil {
			break
		}
	}
	ns, err := perUnit(rounds*slots, func() error {
		for r := 0; r < rounds; r++ {
			p.Init(page.KindHeap)
			for s := 0; s < slots; s++ {
				if _, err := p.Insert(rec); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("page.insert_ns", "ns", ns)
	ns, err = perUnit(rounds*slots, func() error {
		for r := 0; r < rounds; r++ {
			for s := 0; s < slots; s++ {
				if _, err := p.Get(s); err != nil {
					return err
				}
			}
		}
		return nil
	})
	put("page.get_ns", "ns", ns)
	return err
}

// scratchPool opens a pool of capacity pages over a fresh file.
func scratchPool(dir, name string, capacity int) (*disk.Manager, *bufpool.Pool, error) {
	mgr, err := disk.Open(filepath.Join(dir, name))
	if err != nil {
		return nil, nil, err
	}
	return mgr, bufpool.New(mgr, capacity), nil
}

func probePool(dir string, put func(string, string, float64)) error {
	// The file holds filePages pages. A pool that holds them all only
	// hits; one an eighth the size, walked in page order, only misses.
	const filePages = 256
	mgr, pool, err := scratchPool(dir, "pool.db", filePages)
	if err != nil {
		return err
	}
	defer mgr.Close()
	var ids []disk.PageID
	for i := 0; i < filePages; i++ {
		f, err := pool.Allocate(page.KindHeap)
		if err != nil {
			return err
		}
		ids = append(ids, f.ID())
		pool.Unpin(f, true)
	}
	if err := pool.Flush(); err != nil {
		return err
	}
	walk := func(pool *bufpool.Pool, rounds int) func() error {
		return func() error {
			for r := 0; r < rounds; r++ {
				for _, id := range ids {
					f, err := pool.Fetch(id)
					if err != nil {
						return err
					}
					pool.Unpin(f, false)
				}
			}
			return nil
		}
	}
	ns, err := perUnit(400*filePages, walk(pool, 400))
	if err != nil {
		return err
	}
	put("bufpool.fetch_hit_ns", "ns", ns)
	ns, err = perUnit(20*filePages, walk(bufpool.New(mgr, filePages/8), 20))
	put("bufpool.fetch_miss_ns", "ns", ns)
	return err
}

func probeWAL(dir string, put func(string, string, float64)) error {
	log, err := wal.Open(filepath.Join(dir, "probe.wal"))
	if err != nil {
		return err
	}
	defer log.Close()
	rec := wal.Record{Txn: 1, Op: wal.OpInsertAt, Page: 7, Slot: 3, Data: make([]byte, 100)}
	const appends = 50000
	ns, err := perUnit(appends, func() error {
		for i := 0; i < appends; i++ {
			if err := log.Append(rec); err != nil {
				return err
			}
		}
		return log.Flush()
	})
	if err != nil {
		return err
	}
	put("wal.append_ns", "ns", ns)
	const syncs = 20
	ns, err = perUnit(syncs, func() error {
		for i := 0; i < syncs; i++ {
			if err := log.Append(rec); err != nil {
				return err
			}
			if err := log.Sync(); err != nil {
				return err
			}
		}
		return nil
	})
	put("wal.sync_us", "us", ns/1000)
	return err
}

func probeHeap(dir string, put func(string, string, float64)) error {
	mgr, pool, err := scratchPool(dir, "heap.db", 2048)
	if err != nil {
		return err
	}
	defer mgr.Close()
	const recs, batch = 40000, 500
	rec := make([]byte, 100)
	var h *heap.Heap
	ns, err := perUnit(recs, func() error {
		if h, err = heap.Create(pool, nil, 1); err != nil {
			return err
		}
		group := make([][]byte, batch)
		for i := range group {
			group[i] = rec
		}
		for n := 0; n < recs; n += batch {
			if _, err := h.InsertBatch(1, group); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("heap.insert_batch_ns_per_rec", "ns", ns)
	ns, err = perUnit(recs, func() error {
		return h.Scan(func(heap.RID, []byte) bool { return true })
	})
	put("heap.scan_ns_per_rec", "ns", ns)
	return err
}

func probeBTree(dir string, put func(string, string, float64)) error {
	mgr, pool, err := scratchPool(dir, "btree.db", 4096)
	if err != nil {
		return err
	}
	defer mgr.Close()
	const keys, gets = 100000, 50000
	items := make([]btree.Item, keys)
	for i := range items {
		k := make([]byte, 8)
		binary.BigEndian.PutUint64(k, uint64(i))
		items[i] = btree.Item{Key: k, Val: k}
	}
	var t *btree.Tree
	ns, err := perUnit(keys, func() error {
		t, err = btree.BulkLoad(pool, items)
		return err
	})
	if err != nil {
		return err
	}
	put("btree.bulkload_ns_per_key", "ns", ns)
	rng := rand.New(rand.NewSource(1))
	before := pool.Stats()
	ns, err = perUnit(gets, func() error {
		for i := 0; i < gets; i++ {
			if _, ok, err := t.Get(items[rng.Intn(keys)].Key); err != nil || !ok {
				return fmt.Errorf("btree probe: key lost (%v)", err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	after := pool.Stats()
	put("btree.get_ns", "ns", ns)
	put("btree.pages_per_get", "count", float64(after.Hits+after.Misses-before.Hits-before.Misses)/(3*gets))
	ns, err = perUnit(keys, func() error {
		return t.ScanRange(nil, nil, func(_, _ []byte) bool { return true })
	})
	put("btree.scan_ns_per_key", "ns", ns)
	return err
}

func probeInverted(_ string, put func(string, string, float64)) error {
	words := strings.Fields("peptidylglycine monooxygenase ascorbate glyoxylate copper zinc ketone aldehyde " +
		"dehydrogenase kinase cdc6 cell cycle dna replication nucleus phosphate glucose oxidase heme iron")
	rng := rand.New(rand.NewSource(1))
	const docs, perDoc = 4000, 20
	texts := make([]string, docs)
	for i := range texts {
		var sb strings.Builder
		for w := 0; w < perDoc; w++ {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteByte(' ')
		}
		texts[i] = sb.String()
	}
	var ix *inverted.Index
	ns, err := perUnit(docs*perDoc, func() error {
		ix = inverted.New()
		for i, text := range texts {
			ix.AddText(uint32(i), 1, text)
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("inverted.add_ns_per_token", "ns", ns)
	const lookups = 2000
	ns, err = perUnit(lookups, func() error {
		for i := 0; i < lookups; i++ {
			if len(ix.Lookup(words[i%len(words)])) == 0 {
				return fmt.Errorf("inverted probe: %q lost", words[i%len(words)])
			}
		}
		return nil
	})
	put("inverted.lookup_ns", "ns", ns)
	return err
}

func probeValue(_ string, put func(string, string, float64)) error {
	tup := value.Tuple{value.NewInt(12345), value.NewText("hlx_enzyme.DEFAULT"), value.NewText(strings.Repeat("x", 48)), value.NewFloat(2.5)}
	const n = 200000
	var buf []byte
	ns, err := perUnit(n, func() error {
		for i := 0; i < n; i++ {
			buf = tup.Encode(buf[:0])
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("value.encode_ns_per_tuple", "ns", ns)
	ns, err = perUnit(n, func() error {
		for i := 0; i < n; i++ {
			if err := value.VisitTuple(buf, func(int, value.Kind, uint64, []byte) error { return nil }); err != nil {
				return err
			}
		}
		return nil
	})
	put("value.visit_ns_per_tuple", "ns", ns)
	return err
}

// probeSQL times the four chunk operators through SQL text on one
// worker: what a row costs to scan and filter, to join, to group, and to
// rank. The shapes are those of the repository's operator benchmarks.
func probeSQL(dir string, put func(string, string, float64)) error {
	db, err := sql.OpenAsync(filepath.Join(dir, "ops.db"), sql.Options{QueryWorkers: 1})
	if err != nil {
		return err
	}
	defer db.Close()
	const rows = 20000
	fill := func(ddl, table string, n int, row func(i int) value.Tuple) error {
		if _, err := db.Exec(ddl); err != nil {
			return err
		}
		tups := make([]value.Tuple, n)
		for i := range tups {
			tups[i] = row(i)
		}
		return db.InsertBatch(table, tups)
	}
	pad := strings.Repeat("x", 40)
	if err := fill(`CREATE TABLE m (k INT, grp TEXT, v INT, pad TEXT)`, "m", rows, func(i int) value.Tuple {
		return value.Tuple{value.NewInt(int64(i)), value.NewText(fmt.Sprintf("g%03d", i%300)),
			value.NewInt(int64((i * 2654435761) % 1000003)), value.NewText(pad)}
	}); err != nil {
		return err
	}
	if err := fill(`CREATE TABLE d (k INT, tag TEXT)`, "d", 400, func(i int) value.Tuple {
		return value.Tuple{value.NewInt(int64(i * (rows / 400))), value.NewText(fmt.Sprintf("t%d", i))}
	}); err != nil {
		return err
	}
	for _, probe := range []struct {
		name, query string
		want        int
	}{
		{"sql.chunk_scan_ns_per_row", `SELECT k, pad FROM m WHERE grp = 'g003'`, rows / 300},
		{"sql.hash_join_ns_per_row", `SELECT d.tag, m.v FROM d, m WHERE m.k = d.k`, 400},
		{"sql.group_by_ns_per_row", `SELECT grp, COUNT(*), SUM(v), MIN(v), MAX(v) FROM m GROUP BY grp`, 300},
		{"sql.topk_ns_per_row", `SELECT k, pad FROM m ORDER BY v DESC LIMIT 5`, 5},
	} {
		ns, err := perUnit(rows, func() error {
			res, err := db.Query(probe.query)
			if err != nil {
				return err
			}
			if len(res.Rows) < probe.want {
				return fmt.Errorf("%s: %d rows, want at least %d", probe.name, len(res.Rows), probe.want)
			}
			return nil
		})
		if err != nil {
			return err
		}
		put(probe.name, "ns", ns)
	}
	return nil
}
