package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"xomatiq/internal/bio"
	"xomatiq/internal/hounds"
	"xomatiq/internal/shred"
)

// dropShredIndexes drops the shredding schema's secondary indexes, so
// every query runs on sequential scans and hash joins.
func dropShredIndexes(t *testing.T, e *Engine) {
	t.Helper()
	for _, ddl := range shred.IndexDDL {
		name := strings.Fields(ddl)[5] // CREATE INDEX IF NOT EXISTS <name> ON ...
		if _, err := e.DB().Exec("DROP INDEX " + name); err != nil {
			t.Fatal(err)
		}
	}
}

func openEngineCfg(t *testing.T, mod func(*Config)) *Engine {
	t.Helper()
	cfg := NewConfig(filepath.Join(t.TempDir(), "wh.db"))
	if mod != nil {
		mod(&cfg)
	}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// setupJoinData loads linked ENZYME and EMBL corpora (the Figure 11
// join shape).
func setupJoinData(t *testing.T, e *Engine) {
	t.Helper()
	opts := bio.GenOptions{Seed: 23, ECLinkRate: 0.5}
	enz := bio.GenEnzymes(10, opts)
	var ids []string
	for _, en := range enz {
		ids = append(ids, en.ID)
	}
	esrc := hounds.NewSimSource("enzyme", enzymeFlat(t, enz))
	if err := e.RegisterSource("hlx_enzyme.DEFAULT", esrc, hounds.EnzymeTransformer{}); err != nil {
		t.Fatal(err)
	}
	var ebuf bytes.Buffer
	if err := bio.WriteEMBL(&ebuf, bio.GenEMBL(40, "inv", ids, opts)); err != nil {
		t.Fatal(err)
	}
	msrc := hounds.NewSimSource("embl", ebuf.String())
	if err := e.RegisterSource("hlx_embl.inv", msrc, hounds.EMBLTransformer{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Harness("hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Harness("hlx_embl.inv"); err != nil {
		t.Fatal(err)
	}
}

const joinQuery = `FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
    $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a//qualifier[@qualifier_type = "EC number"] = $b/enzyme_id
RETURN $Accession_Number = $a//embl_accession_number,
       $Accession_Description = $a//description`

// analyze runs EXPLAIN ANALYZE and sanity-checks the report frame.
func analyze(t *testing.T, e *Engine, query string) string {
	t.Helper()
	out, err := e.ExplainAnalyze(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "total:") || !strings.Contains(out, "mode=sql") {
		t.Fatalf("report missing total line:\n%s", out)
	}
	return out
}

func TestExplainAnalyzeIndexLookup(t *testing.T) {
	e := openEngine(t)
	setupEnzyme(t, e, 10)
	out := analyze(t, e, `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE $a//enzyme_id = "1.14.17.3" RETURN $a//enzyme_description`)
	if !regexp.MustCompile(`index [^\n]*\(actual rows=\d+ time=[^\)]+\)`).MatchString(out) {
		t.Errorf("no index lookup with actuals:\n%s", out)
	}
}

func TestExplainAnalyzeSerialScan(t *testing.T) {
	e := openEngineCfg(t, func(c *Config) { c.QueryWorkers = 1 })
	dropShredIndexes(t, e)
	setupEnzyme(t, e, 10)
	out := analyze(t, e, `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id`)
	if !regexp.MustCompile(`sequential \(batch=\d+\) \(est rows=\d+\) \(actual rows=\d+ time=[^\)]+ batches=\d+ rows/batch=\d+\)`).MatchString(out) {
		t.Errorf("no sequential scan with batched actuals:\n%s", out)
	}
}

func TestExplainAnalyzeParallelScan(t *testing.T) {
	e := openEngineCfg(t, func(c *Config) { c.QueryWorkers = 4 })
	dropShredIndexes(t, e)
	setupEnzyme(t, e, 300)
	out := analyze(t, e, `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id`)
	if !regexp.MustCompile(`parallel scan \(\d+ workers, \d+ pages\) \(batch=\d+\) \(est rows=\d+\) \(actual rows=\d+ time=[^\)]+ batches=\d+ rows/batch=\d+\)`).MatchString(out) {
		t.Errorf("no parallel scan with batched actuals:\n%s", out)
	}
	// The superseded serial scan line stays in the plan but never ran, so
	// it must render without actuals.
	if regexp.MustCompile(`sequential \(actual`).MatchString(out) {
		t.Errorf("superseded serial scan rendered actuals:\n%s", out)
	}
}

func TestExplainAnalyzeHashJoin(t *testing.T) {
	e := openEngineCfg(t, func(c *Config) { c.QueryWorkers = 1 })
	dropShredIndexes(t, e)
	setupJoinData(t, e)
	out := analyze(t, e, joinQuery)
	if !regexp.MustCompile(`partitioned hash join \(\d+ keys, partitions=\d+\) \(est rows=\d+\) \(actual rows=\d+ time=[^\)]+ batches=\d+ rows/batch=\d+\)`).MatchString(out) {
		t.Errorf("no partitioned hash join with batched actuals:\n%s", out)
	}
}

func TestExplainAnalyzeIndexJoin(t *testing.T) {
	e := openEngine(t)
	setupJoinData(t, e)
	out := analyze(t, e, joinQuery)
	if !regexp.MustCompile(`join [^\n]*\(actual rows=\d+ time=[^\)]+\)`).MatchString(out) {
		t.Errorf("no join operator with actuals:\n%s", out)
	}
}

// TestExplainAnalyzeJoinSwitch: Fig. 9 probes idx_vs_node on its
// (db, doc_id) prefix for each matching entry, and a join whose probes
// outgrow its build side's estimate switches to a hash build. EXPLAIN
// ANALYZE says where, and exec.join_switches counts it in the metrics
// that /metrics serves.
func TestExplainAnalyzeJoinSwitch(t *testing.T) {
	e := openEngine(t)
	setupEnzyme(t, e, 300)
	out := analyze(t, e, `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id, $a//enzyme_description`)
	if !regexp.MustCompile(`index nested loop via idx_vs_node \(2 of 3 cols, 3 keys\), hash past \d+ rows`).MatchString(out) {
		t.Errorf("no prefix probe on idx_vs_node:\n%s", out)
	}
	if !regexp.MustCompile(`hash past \d+ rows \(est rows=\d+\) \(actual rows=\d+ time=[^\)]+\) \(hash after \d+ probes \(\d+ rows fetched\)\)`).MatchString(out) {
		t.Errorf("no join switched to its hash build:\n%s", out)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if n := snap.Metrics()["exec.join_switches"]; n < 1 {
		t.Errorf("exec.join_switches = %v, want >= 1", n)
	}
}

// TestExplainSemiJoins: Fig. 8's two contains() aliases are existence
// tests that nothing after them reads, so under the translation's
// DISTINCT they join as semi joins; the lookup and Fig. 9 return every
// alias past their driving scan, so they plan none.
func TestExplainSemiJoins(t *testing.T) {
	opts := bio.GenOptions{Seed: 42, Cdc6Rate: 0.2, ECLinkRate: 0.3}
	enzymes := bio.GenEnzymes(100, opts)
	ids := make([]string, len(enzymes))
	for i, en := range enzymes {
		ids[i] = en.ID
	}
	var embl, sprot bytes.Buffer
	if err := bio.WriteEMBL(&embl, bio.GenEMBL(60, "inv", ids, opts)); err != nil {
		t.Fatal(err)
	}
	if err := bio.WriteSProt(&sprot, bio.GenSProt(60, opts)); err != nil {
		t.Fatal(err)
	}
	e := openEngine(t)
	for _, s := range []struct {
		db, flat string
		tr       hounds.Transformer
	}{
		{"hlx_enzyme.DEFAULT", enzymeFlat(t, enzymes), hounds.EnzymeTransformer{}},
		{"hlx_embl.inv", embl.String(), hounds.EMBLTransformer{}},
		{"hlx_sprot.all", sprot.String(), hounds.SProtTransformer{}},
	} {
		if err := e.RegisterSource(s.db, hounds.NewSimSource(s.db, s.flat), s.tr); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Harness(s.db); err != nil {
			t.Fatal(err)
		}
	}
	semiLines := func(query string) []string {
		t.Helper()
		plan, err := e.Explain(query)
		if err != nil {
			t.Fatal(err)
		}
		return regexp.MustCompile(`semi join \S+ as \S+:`).FindAllString(plan, -1)
	}
	fig8 := `FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
    $b IN document("hlx_sprot.all")/hlx_n_sequence
WHERE contains($a, "cdc6", any) AND contains($b, "cdc6", any)
RETURN $b//sprot_accession_number, $a//embl_accession_number`
	got := semiLines(fig8)
	slices.Sort(got)
	if want := []string{"semi join values_str as w3:", "semi join values_str as w4:"}; !slices.Equal(got, want) {
		t.Errorf("Fig. 8 semi joins = %q, want %q", got, want)
	}
	if res, err := e.Query(fig8); err != nil || len(res.Rows) == 0 {
		t.Fatalf("Fig. 8 = %v, %v; want rows", res, err)
	}
	for name, query := range map[string]string{
		"lookup": `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE $a//enzyme_id = "` + ids[7] + `" RETURN $a//enzyme_id, $a//enzyme_description`,
		"Fig. 9": `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id, $a//enzyme_description`,
	} {
		if got := semiLines(query); len(got) > 0 {
			t.Errorf("%s plans semi joins %q, want none", name, got)
		}
	}
}

// TestDeprecatedAccessorsMatchSnapshot pins the one-release compatibility
// contract: every deprecated accessor returns exactly the matching
// Snapshot field on a quiescent engine.
func TestDeprecatedAccessorsMatchSnapshot(t *testing.T) {
	e := openEngine(t)
	setupEnzyme(t, e, 10)
	if _, err := e.Query(`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone") RETURN $a//enzyme_id`); err != nil {
		t.Fatal(err)
	}

	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The unified snapshot mirrors the layer internals exactly (the old
	// PlanCacheStats/Stats/LastLoadStats thin views collapsed into it).
	if phys := e.db.Stats(); !reflect.DeepEqual(phys, snap.DB) {
		t.Errorf("db.Stats() = %+v\nSnapshot().DB = %+v", phys, snap.DB)
	}
	if whs, err := e.store.Overview(); err != nil || !reflect.DeepEqual(whs, snap.Warehouses) {
		t.Errorf("store.Overview() = %+v, %v\nSnapshot().Warehouses = %+v", whs, err, snap.Warehouses)
	}
	if pc := e.plans.stats(); !reflect.DeepEqual(pc, snap.PlanCache) {
		t.Errorf("plans.stats() = %+v\nSnapshot().PlanCache = %+v", pc, snap.PlanCache)
	}
	if ll := e.lastLoadStats(); !reflect.DeepEqual(ll, snap.LastLoad) {
		t.Errorf("lastLoadStats() = %+v\nSnapshot().LastLoad = %+v", ll, snap.LastLoad)
	}

	// The registry saw the load and the query.
	if snap.Ingest.Loads != 1 || snap.Ingest.Docs == 0 || snap.Ingest.Tuples == 0 {
		t.Errorf("ingest counters = %+v", snap.Ingest)
	}
	if snap.Query.Queries == 0 || snap.Query.SQL == 0 || snap.Query.Latency.Count == 0 {
		t.Errorf("query counters = %+v", snap.Query)
	}
	if snap.WAL.Appends == 0 || snap.WAL.Bytes == 0 {
		t.Errorf("wal counters = %+v", snap.WAL)
	}
	if snap.Pool.Shards == 0 || snap.Pool.Hits+snap.Pool.Misses == 0 {
		t.Errorf("pool counters = %+v", snap.Pool)
	}
}

func TestSlowQueryLogJSON(t *testing.T) {
	var buf bytes.Buffer
	e := openEngineCfg(t, func(c *Config) {
		c.SlowQueryThreshold = time.Nanosecond // every query is slow
		c.SlowQueryLog = &buf
	})
	setupEnzyme(t, e, 10)
	const query = `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone") RETURN $a//enzyme_id`
	for i := 0; i < 2; i++ { // second run hits the plan cache
		if _, err := e.Query(query); err != nil {
			t.Fatal(err)
		}
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("slow log has %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var recs []map[string]any
	for _, l := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("slow log line is not JSON: %v\n%s", err, l)
		}
		recs = append(recs, rec)
	}
	first, second := recs[0], recs[1]
	if first["query"] != query || first["mode"] != "sql" {
		t.Errorf("first record = %+v", first)
	}
	if first["plan_cache"] != "miss" || second["plan_cache"] != "hit" {
		t.Errorf("plan_cache = %v then %v, want miss then hit",
			first["plan_cache"], second["plan_cache"])
	}
	if first["rows"].(float64) == 0 || first["elapsed_ms"].(float64) <= 0 {
		t.Errorf("first record rows/elapsed = %+v", first)
	}
	ops, ok := first["operators"].([]any)
	if !ok || len(ops) == 0 {
		t.Fatalf("first record has no operators: %+v", first)
	}
	op0 := ops[0].(map[string]any)
	if _, ok := op0["op"].(string); !ok {
		t.Errorf("operator summary = %+v", op0)
	}

	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Query.Slow != 2 {
		t.Errorf("query.slow = %d, want 2", snap.Query.Slow)
	}
}

// TestSnapshotConcurrentWithQueries runs queries, a re-load, and a
// snapshot poller concurrently (run with -race): Snapshot must never
// block the workers and every counter must be monotone across snapshots.
func TestSnapshotConcurrentWithQueries(t *testing.T) {
	e := openEngine(t)
	setupEnzyme(t, e, 30)
	queries := []string{
		`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone") RETURN $a//enzyme_id`,
		`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE $a//enzyme_id = "1.14.17.3" RETURN $a//enzyme_description`,
		`FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
RETURN $a//enzyme_id`,
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	const readers, iterations = 4, 12
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				if _, err := e.QueryContext(ctx, queries[(r+i)%len(queries)]); err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Re-harvest the unchanged source: the full load path races the
		// readers and the snapshot poller.
		if _, err := e.HarnessContext(ctx, "hlx_enzyme.DEFAULT"); err != nil {
			errs <- fmt.Errorf("harness: %w", err)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev Snapshot
		for i := 0; i < 20; i++ {
			snap, err := e.Snapshot()
			if err != nil {
				errs <- fmt.Errorf("snapshot: %w", err)
				return
			}
			monotone := []struct {
				name      string
				prev, cur uint64
			}{
				{"query.count", prev.Query.Queries, snap.Query.Queries},
				{"query.rows", prev.Query.Rows, snap.Query.Rows},
				{"pool.hits", prev.Pool.Hits, snap.Pool.Hits},
				{"pool.misses", prev.Pool.Misses, snap.Pool.Misses},
				{"heap.pages_scanned", prev.Heap.PagesScanned, snap.Heap.PagesScanned},
				{"wal.appends", prev.WAL.Appends, snap.WAL.Appends},
				{"wal.bytes", prev.WAL.Bytes, snap.WAL.Bytes},
				{"ingest.docs", prev.Ingest.Docs, snap.Ingest.Docs},
				{"query.latency.count", prev.Query.Latency.Count, snap.Query.Latency.Count},
			}
			for _, m := range monotone {
				if m.cur < m.prev {
					errs <- fmt.Errorf("%s went backwards: %d -> %d", m.name, m.prev, m.cur)
					return
				}
			}
			prev = snap
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(readers * iterations); snap.Query.Queries < want {
		t.Errorf("query.count = %d, want >= %d", snap.Query.Queries, want)
	}
	if snap.Ingest.Loads < 2 {
		t.Errorf("ingest.loads = %d, want >= 2", snap.Ingest.Loads)
	}
}

// planLinesRun checks that the plan Explain rendered is the one EXPLAIN
// ANALYZE ran: line for line, each analyzed line is the planned line plus
// its actuals. The run may add lines after them: a hash join plans its
// build side when the build executes, and the report ends in its total.
func planLinesRun(t *testing.T, plan, report string) {
	t.Helper()
	planned := strings.Split(plan, "\n")
	ran := strings.Split(report, "\n")
	if len(ran) <= len(planned) {
		t.Fatalf("plan has %d lines, the analyzed run %d:\n%s\nran:\n%s", len(planned), len(ran), plan, report)
	}
	for i, line := range planned {
		if !strings.HasPrefix(ran[i], line) {
			t.Errorf("line %d: planned %q, ran %q", i, line, ran[i])
		}
	}
}

// TestSessionExplainHonorsWorkers: Session.Explain plans with the
// session's worker override, so it shows the serial scan a serial
// session runs and the parallel scan a default session runs.
func TestSessionExplainHonorsWorkers(t *testing.T) {
	e := openEngineCfg(t, func(c *Config) { c.QueryWorkers = 4 })
	dropShredIndexes(t, e)
	setupEnzyme(t, e, 300)
	const q = `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id`
	ctx := context.Background()
	for _, workers := range []int{1, 0} {
		sess, err := e.NewSession(ctx, WithSessionQueryWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		plan, err := sess.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		report, err := sess.ExplainAnalyze(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := strings.Contains(plan, "parallel scan"), workers != 1; got != want {
			t.Errorf("workers=%d: plan shows parallel scan %v, want %v:\n%s", workers, got, want, plan)
		}
		planLinesRun(t, plan, report)
	}
}
