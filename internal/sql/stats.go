// stats.go implements optimizer statistics: per-table row counts and
// per-column summaries (distinct-value estimates via a k-minimum-values
// sketch, min/max bounds, null counts, and an exact frequency map for
// low-cardinality columns such as the shredding schema's path_id).
// Statistics are collected by ANALYZE — one sequential scan per table —
// and persisted as "S" rows in the catalog heap so they survive reopen.
// The warehouse load pipeline re-analyzes after every bulk load, riding
// the same collector that rebuilds the secondary indexes.
package sql

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"xomatiq/internal/storage/heap"
	"xomatiq/internal/value"
)

const (
	// kmvK is the sketch size: the k smallest 64-bit hashes of the
	// distinct values seen. Below k distinct values the count is exact;
	// above, the k-th smallest hash estimates the density of the hash
	// space and hence the distinct count, with ~1/sqrt(k) relative error.
	kmvK = 256
	// statsFreqCap bounds the exact frequency map per column. Columns
	// with more distinct values (free text, Dewey keys) drop the map and
	// keep only the sketch estimate; dictionary-coded columns (path_id,
	// kind, db) stay under it, which is what gives the planner its
	// per-path row counts.
	statsFreqCap = 64
	// statsFreqKeyMax drops long values from the frequency map so one
	// skewed text column cannot bloat the persisted catalog row.
	statsFreqKeyMax = 32
	// statsRowBudget caps the encoded size of one table's stats row.
	// Frequency maps are dropped column-by-column (in column order, so
	// the choice is deterministic) once the running estimate exceeds it;
	// what the planner sees in memory is exactly what reopen reloads.
	statsRowBudget = 4096
)

// kmvSketch accumulates the k smallest distinct hashes seen, ascending.
type kmvSketch struct {
	hashes []uint64
}

func (s *kmvSketch) add(h uint64) {
	n := len(s.hashes)
	if n == kmvK && h >= s.hashes[n-1] {
		return
	}
	i := sort.Search(n, func(i int) bool { return s.hashes[i] >= h })
	if i < n && s.hashes[i] == h {
		return
	}
	if n < kmvK {
		s.hashes = append(s.hashes, 0)
	} else {
		n--
	}
	copy(s.hashes[i+1:], s.hashes[i:n])
	s.hashes[i] = h
}

// estimate reports the distinct count: exact while the sketch is not
// full, density-extrapolated after.
func (s *kmvSketch) estimate() int64 {
	n := len(s.hashes)
	if n < kmvK {
		return int64(n)
	}
	kth := s.hashes[n-1]
	if kth == 0 {
		return int64(n)
	}
	return int64(float64(kmvK-1) / (float64(kth) / float64(^uint64(0))))
}

// colStats summarises one column for the planner.
type colStats struct {
	NDV   int64 // distinct non-null values (exact or sketch estimate)
	Nulls int64
	// Min/Max are the extreme non-null values (Null when none seen).
	// Numeric columns use them for range-predicate interpolation.
	Min, Max value.Value
	// Freq maps encoded value keys to exact row counts; nil once the
	// column exceeded statsFreqCap distinct (or the row budget).
	Freq map[string]freqEntry
}

type freqEntry struct {
	Val value.Value
	N   int64
}

// tableStats is the ANALYZE-time snapshot for one table. Live row and
// page counts always come from the heap; Rows records the population the
// selectivity fractions were measured over.
type tableStats struct {
	Rows int64
	Cols []colStats
}

// collectStats scans a table's heap once and summarises every column.
// Fields are read straight off the wire form; a Value is built only when
// it becomes a column's new bound or a new frequency entry, which after
// the first rows of a table is rare.
func collectStats(t *TableInfo) (*tableStats, error) {
	st := &tableStats{Cols: make([]colStats, len(t.Columns))}
	sketches := make([]kmvSketch, len(t.Columns))
	freqs := make([]map[string]freqEntry, len(t.Columns))
	for i := range freqs {
		freqs[i] = make(map[string]freqEntry)
	}
	// bounds[i] holds the keys of Cols[i].Min and Max: a key between the
	// two belongs to a value value.Compare puts between them, which moves
	// neither.
	bounds := make([][2][]byte, len(t.Columns))
	var key []byte
	h := fnv.New64a()
	field := func(i int, k value.Kind, bits uint64, payload []byte) error {
		if i >= len(st.Cols) {
			return nil
		}
		c := &st.Cols[i]
		if k == value.KindNull {
			c.Nulls++
			return nil
		}
		key = value.AppendWireKey(key[:0], k, bits, payload)
		h.Reset()
		h.Write(key)
		sketches[i].add(h.Sum64())
		b := &bounds[i]
		lo, hi := bytes.Compare(key, b[0]), bytes.Compare(key, b[1])
		// Numeric keys go through float64, so two integers past 2^53 can
		// share a key and still differ: only a key strictly inside is safe.
		rounds := k == value.KindInt || k == value.KindFloat
		if c.Min.IsNull() || lo < 0 || hi > 0 || rounds && (lo == 0 || hi == 0) {
			v := value.WireValue(k, bits, payload)
			if c.Min.IsNull() || value.Compare(v, c.Min) < 0 {
				c.Min, b[0] = v, append(b[0][:0], key...)
			}
			if c.Max.IsNull() || value.Compare(v, c.Max) > 0 {
				c.Max, b[1] = v, append(b[1][:0], key...)
			}
		}
		if freqs[i] != nil {
			if e, ok := freqs[i][string(key)]; ok {
				e.N++
				freqs[i][string(key)] = e
			} else if len(key) > statsFreqKeyMax || len(freqs[i]) >= statsFreqCap {
				freqs[i] = nil
			} else {
				freqs[i][string(key)] = freqEntry{Val: value.WireValue(k, bits, payload), N: 1}
			}
		}
		return nil
	}
	var serr error
	err := t.Heap.Scan(func(_ heap.RID, rec []byte) bool {
		st.Rows++
		serr = value.VisitTuple(rec, field)
		return serr == nil
	})
	if err != nil {
		return nil, err
	}
	if serr != nil {
		return nil, serr
	}
	// Finalise per column; enforce the persisted-row budget in column
	// order so the in-memory stats match what reopen reloads.
	budget := statsRowBudget
	for i := range st.Cols {
		c := &st.Cols[i]
		if freqs[i] != nil {
			c.NDV = int64(len(freqs[i]))
			size := 0
			for k := range freqs[i] {
				size += len(k) + 16
			}
			if size <= budget {
				c.Freq = freqs[i]
				budget -= size
			}
		} else {
			c.NDV = sketches[i].estimate()
		}
	}
	return st, nil
}

// encodeStatsRow flattens a stats snapshot into one catalog tuple:
//
//	["S", table, rows, ncols, then per column:
//	  ndv, nulls, min, max, nfreq, (val, count) * nfreq]
//
// Frequency entries are emitted in sorted key order so the encoded bytes
// are deterministic (fault-injection sweeps count disk ops).
func encodeStatsRow(table string, st *tableStats) []byte {
	tup := value.Tuple{
		value.NewText("S"), value.NewText(table),
		value.NewInt(st.Rows), value.NewInt(int64(len(st.Cols))),
	}
	for i := range st.Cols {
		c := &st.Cols[i]
		tup = append(tup,
			value.NewInt(c.NDV), value.NewInt(c.Nulls), c.Min, c.Max,
			value.NewInt(int64(len(c.Freq))))
		keys := make([]string, 0, len(c.Freq))
		for k := range c.Freq {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			e := c.Freq[k]
			tup = append(tup, e.Val, value.NewInt(e.N))
		}
	}
	return tup.Encode(nil)
}

func decodeStatsRow(tup value.Tuple) (table string, st *tableStats, err error) {
	if len(tup) < 4 {
		return "", nil, fmt.Errorf("sql: corrupt catalog stats row")
	}
	table = tup[1].Text()
	st = &tableStats{Rows: tup[2].Int()}
	ncols := int(tup[3].Int())
	pos := 4
	for i := 0; i < ncols; i++ {
		if pos+5 > len(tup) {
			return "", nil, fmt.Errorf("sql: corrupt catalog stats row for %q", table)
		}
		c := colStats{
			NDV: tup[pos].Int(), Nulls: tup[pos+1].Int(),
			Min: tup[pos+2], Max: tup[pos+3],
		}
		nfreq := int(tup[pos+4].Int())
		pos += 5
		if nfreq > 0 {
			if pos+2*nfreq > len(tup) {
				return "", nil, fmt.Errorf("sql: corrupt catalog stats row for %q", table)
			}
			c.Freq = make(map[string]freqEntry, nfreq)
			for j := 0; j < nfreq; j++ {
				v, n := tup[pos], tup[pos+1].Int()
				c.Freq[string(v.EncodeKey(nil))] = freqEntry{Val: v, N: n}
				pos += 2
			}
		}
		st.Cols = append(st.Cols, c)
	}
	return table, st, nil
}

// Analyze recomputes optimizer statistics for every table and persists
// them in the catalog, so they survive reopen. Queries planned after
// Analyze returns use the fresh statistics immediately (plans are built
// per execution); queries in flight keep the snapshot they started with.
// The load pipeline calls this after each bulk load.
func (db *DB) Analyze() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.inBatch {
		return errors.New("sql: cannot analyze inside an open batch")
	}
	return db.autocommitLocked(db.analyzeLocked)
}

// analyzeLocked collects and persists stats for every table in sorted
// name order (deterministic disk-op sequence). Caller holds db.mu.
func (db *DB) analyzeLocked(txn uint64) error {
	names := make([]string, 0, len(db.cat.tables))
	for name := range db.cat.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := db.cat.tables[name]
		st, err := collectStats(t)
		if err != nil {
			return err
		}
		rec := encodeStatsRow(t.Name, st)
		if t.hasStats {
			nr, err := db.catH.Update(txn, t.statsRID, rec)
			if err != nil {
				return err
			}
			t.statsRID = nr
		} else {
			rid, err := db.catH.Insert(txn, rec)
			if err != nil {
				return err
			}
			t.statsRID = rid
			t.hasStats = true
		}
		t.Stats = st
	}
	return nil
}
