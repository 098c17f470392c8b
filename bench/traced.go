package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"xomatiq/internal/core"
	"xomatiq/internal/dtd"
	"xomatiq/internal/hounds"
	"xomatiq/internal/shred"
	"xomatiq/internal/sql"
	"xomatiq/internal/xmldoc"
	"xomatiq/internal/xq"
	"xomatiq/internal/xq2sql"
)

// The traced pass: the same seed and inputs as the untraced one, one
// client, a fixed number of everything. Every operation is run whole
// (an HTTP request; Session.Query; Harness; Update) and once more stage
// by stage, the driver calling the layers' public functions in the order
// the program does. Each call is a span. A stage span's parent is the
// whole span it is a part of in the program's call graph, so a whole
// span's self time — its duration minus its children's — is what the
// stages do not account for. End-to-end numbers never come from here.

// loadChunk mirrors core's crash-atomic chunk size.
const loadChunk = 200

// onOneProc runs fn with a single processor. A whole Harness pipelines
// transform, shredding workers and the committing collector over the
// available processors; the staged copy is one goroutine. On one
// processor neither overlaps anything, so the stages can add up to the
// whole. What parallelism buys is the untraced run's business.
func onOneProc(fn func() error) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return fn()
}

// tracedPass is the state of one traced pass.
type tracedPass struct {
	r      *run
	tr     *tracer
	nextOp int

	loadOps, updateOps, queryOps []int
	harnessSpans                 map[int]map[string]int // load op -> db -> whole Harness span
	updateSpans                  []int                  // whole Update spans, in version order
	versions                     []string               // ENZYME flat files the updates published
	loadCounters                 []counters             // registry after each whole load
	loadPages                    []float64

	plainMs      []float64 // untraced reference requests
	requestSpans []int
	sessionSpans []int
	missed       []bool // per op: did Session.Query miss the plan cache
	perOp        counters
	jsonBytes    []float64
	kinds        []string
	invalidated  float64
}

func (p *tracedPass) op() int { p.nextOp++; return p.nextOp }

// trace runs the traced pass and returns the per-layer metrics.
func (r *run) trace() (metrics, detail map[string]metric, err error) {
	p := &tracedPass{r: r, tr: newTracer(), harnessSpans: map[int]map[string]int{}, perOp: counters{}}
	if _, err := r.fresh(); err != nil {
		return nil, nil, err
	}
	for i := 0; i < r.w.updates; i++ {
		flat, _, err := r.ev.step()
		if err != nil {
			return nil, nil, err
		}
		p.versions = append(p.versions, flat)
	}
	e, err := p.wholeLoads()
	if err != nil {
		return nil, nil, err
	}
	err = p.queries(e)
	if err == nil {
		err = p.wholeUpdates(e)
	}
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = onOneProc(p.staged)
	}
	if err != nil {
		return nil, nil, err
	}
	metrics, detail = p.metrics()
	if err := probes(filepath.Join(r.opt.outDir, "scratch-probes-"+r.w.name), metrics); err != nil {
		return nil, nil, err
	}
	return metrics, detail, p.tr.writeJSONL(filepath.Join(r.opt.outDir, "trace-"+r.w.name+".jsonl"))
}

// wholeLoads harnesses the corpus tracedLoads times, each Harness one
// span, and serves the last warehouse.
func (p *tracedPass) wholeLoads() (*env, error) {
	r := p.r
	for i := 0; ; i++ {
		op, dir, sites := p.op(), r.dir(), newSites(r.c.flats)
		p.loadOps = append(p.loadOps, op)
		p.harnessSpans[op] = map[string]int{}
		ls, err := load(dir, r.c.flats, sites, r.o, &r.t, func(eng *core.Engine, db string) (n int, err error) {
			runtime.GC() // the staged copy starts from a collected heap too
			id := p.tr.begin("core.harness", -1, op)
			p.harnessSpans[op][db] = id
			err = onOneProc(func() error { n, err = eng.Harness(db); return err })
			p.tr.end(id)
			return n, err
		})
		if err != nil {
			return nil, err
		}
		p.loadCounters = append(p.loadCounters, ls.m)
		p.loadPages = append(p.loadPages, ls.filePages)
		if i == r.w.tracedLoads-1 {
			e, _, err := serve(dir, r.c.flats, sites, r.o, &r.t)
			return e, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
}

// queries runs the fixed list of operations three times over. The
// timing pass runs each operation as a plain HTTP request (the untraced
// reference for trace.overhead_ratio), as an HTTP request inside a span
// and as an in-process Session.Query inside a span, back to back and in
// rotating order, so that drift and warm caches favour none of the
// three. The counting pass repeats the Session.Query calls with the
// engine's counters read around each one and no clock running. The
// staged pass calls the layers one by one.
func (p *tracedPass) queries(e *env) error {
	r := p.r
	n := max(1, int(r.w.tracedOps*r.opt.seconds))
	ops := make([]query, n)
	next := r.w.stream(r, 0)
	for i := range ops {
		ops[i] = next()
		p.queryOps = append(p.queryOps, p.op())
		p.kinds = append(p.kinds, ops[i].kind)
	}
	check := r.checker(0)
	c := newClient()
	defer c.CloseIdleConnections()
	sess, err := e.eng.NewSession(context.Background(), core.WithSessionTag("ledger"))
	if err != nil {
		return err
	}
	defer sess.Close()

	p.requestSpans, p.sessionSpans = make([]int, n), make([]int, n)
	plain := latencies{}
	for i, q := range ops {
		op := p.queryOps[i]
		// The session span's parent is the request span, which may not
		// exist yet: reserve the request span first, fill it in its turn.
		request := p.tr.begin("server.request", -1, op)
		session := p.tr.begin("core.session.query", request, op)
		p.requestSpans[i], p.sessionSpans[i] = request, session
		for turn := 0; turn < 3; turn++ {
			switch (i + turn) % 3 {
			case 0:
				e.ask(c, q, check, &r.t, plain)
			case 1:
				p.tr.restart(request)
				res, err := e.post(c, q.text)
				p.tr.end(request)
				if err == nil {
					err = check(q, res)
				}
				r.t.record(err)
			case 2:
				p.tr.restart(session)
				res, err := sess.Query(context.Background(), q.text)
				p.tr.end(session)
				if err == nil {
					err = check(q, res)
				}
				r.t.record(err)
			}
		}
	}
	p.plainMs = plain.all()

	var mem0, mem1 runtime.MemStats
	// Engine.Snapshot runs a query of its own; it is taken once between
	// operations, and the registry is read after it.
	before, err := e.eng.Snapshot()
	if err != nil {
		return err
	}
	for _, q := range ops {
		reg := counters(e.eng.Registry().Snapshot().Metrics())
		runtime.ReadMemStats(&mem0)
		res, qerr := sess.Query(context.Background(), q.text)
		runtime.ReadMemStats(&mem1)
		p.perOp.add(counters(e.eng.Registry().Snapshot().Metrics()).delta(reg))
		p.perOp["go.allocs"] += float64(mem1.Mallocs - mem0.Mallocs)
		p.perOp["go.alloc_bytes"] += float64(mem1.TotalAlloc - mem0.TotalAlloc)
		after, err := e.eng.Snapshot()
		if err != nil {
			return err
		}
		p.perOp["plancache.hits"] += float64(after.PlanCache.Hits - before.PlanCache.Hits)
		p.perOp["plancache.misses"] += float64(after.PlanCache.Misses - before.PlanCache.Misses)
		p.missed = append(p.missed, after.PlanCache.Misses > before.PlanCache.Misses)
		before = after
		if qerr == nil {
			qerr = check(q, res)
		}
		r.t.record(qerr)
	}

	for i, q := range ops {
		if err := p.stagedQuery(e.eng, q, i); err != nil {
			return fmt.Errorf("staged %s: %w", q.kind, err)
		}
	}
	return nil
}

// stagedQuery is Engine.queryContext one call at a time. The front end
// (XQ parse, translate, SQL parse) hangs under the Session.Query span
// only if that call missed the plan cache and so paid for it; on a hit
// the three spans are roots: measured, but part of nothing. JSON encode
// and decode belong to the request, not the session; the XML rendering
// and the reconstruction of the hit documents are not on the request
// path at all and are measured for comparison (the paper's claim that
// reconstruction dwarfs query processing).
func (p *tracedPass) stagedQuery(eng *core.Engine, q query, i int) error {
	op, request, session := p.queryOps[i], p.requestSpans[i], p.sessionSpans[i]
	front := -1
	if p.missed[i] {
		front = session
	}
	var (
		parsed *xq.Query
		trans  *xq2sql.Translation
		sel    *sql.Select
		rows   *sql.Rows
		res    *core.Result
		wire   []byte
	)
	store := eng.Store()
	if _, err := p.tr.timed("xq.parse", front, op, func() (err error) {
		parsed, err = xq.Parse(q.text)
		return err
	}); err != nil {
		return err
	}
	translate := p.tr.begin("xq2sql.translate", front, op)
	trans, err := xq2sql.Translate(store, parsed, xq2sql.Options{UseKeywordIndex: true})
	p.tr.end(translate)
	if err != nil {
		return err
	}
	if len(q.keywords) > 0 {
		// Translate did these lookups itself; done again alone they show
		// how much of it they are.
		p.tr.timed("inverted.lookup", translate, op, func() error {
			for _, kw := range q.keywords {
				store.Keywords(kw.db).LookupDocs(kw.token)
			}
			return nil
		})
	}
	if _, err := p.tr.timed("sql.parse", front, op, func() error {
		stmt, err := sql.Parse(trans.SQL)
		if err != nil {
			return err
		}
		var ok bool
		if sel, ok = stmt.(*sql.Select); !ok {
			return errors.New("translated SQL is not a SELECT")
		}
		return nil
	}); err != nil {
		return err
	}
	if _, err := p.tr.timed("sql.exec", session, op, func() (err error) {
		rows, err = eng.DB().QueryStmtOptsContext(context.Background(), sel, sql.ExecOpts{SnapshotRead: true})
		return err
	}); err != nil {
		return err
	}
	p.tr.timed("core.result_rows", session, op, func() error {
		res = &core.Result{Columns: trans.Columns, Mode: core.ModeSQL, SQL: trans.SQL}
		for _, tup := range rows.Rows {
			row := make([]string, len(tup))
			for i, v := range tup {
				row[i] = v.String()
			}
			res.Rows = append(res.Rows, row)
		}
		return nil
	})
	p.tr.timed("core.result_json", request, op, func() error { wire = res.JSON(); return nil })
	p.jsonBytes = append(p.jsonBytes, float64(len(wire)))
	if _, err := p.tr.timed("core.result_decode", request, op, func() error {
		_, err := core.ResultFromJSON(wire)
		return err
	}); err != nil {
		return err
	}
	p.tr.timed("core.result_xml", -1, op, func() error { res.XML(); return nil })
	_, err = p.tr.timed("shred.reconstruct", -1, op, func() error {
		for _, dc := range q.docCols {
			done := map[string]bool{}
			for _, row := range res.Rows {
				if name := row[dc.col]; !done[name] {
					done[name] = true
					if _, err := store.ReconstructByName(dc.db, name); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
	return err
}

// wholeUpdates applies each published version with one Update span,
// then reads a little, so that the plan cache meets the moved epoch.
func (p *tracedPass) wholeUpdates(e *env) error {
	r := p.r
	if len(p.versions) == 0 {
		return nil
	}
	r.evolving = true
	before, err := e.eng.Snapshot()
	if err != nil {
		return err
	}
	next := r.lookupsAndFig9(0) // the reads checkEvolving can judge
	for _, flat := range p.versions {
		op := p.op()
		p.updateOps = append(p.updateOps, op)
		e.sites[dbEnzyme].Publish(flat)
		id := p.tr.begin("core.update", -1, op)
		err := onOneProc(func() error { _, err := e.eng.Update(dbEnzyme); return err })
		p.tr.end(id)
		r.t.record(err)
		if err != nil {
			return err
		}
		p.updateSpans = append(p.updateSpans, id)
		r.read(e, 0, 8, next)
	}
	after, err := e.eng.Snapshot()
	if err != nil {
		return err
	}
	p.invalidated = float64(after.PlanCache.Invalidations - before.PlanCache.Invalidations)
	return nil
}

// staged repeats every whole load and update stage by stage on a second
// warehouse that sees the same inputs in the same order.
func (p *tracedPass) staged() error {
	r := p.r
	for i, op := range p.loadOps {
		dir := r.dir()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		sites := newSites(r.c.flats)
		eng, err := openEngine(dir, r.c.flats, sites)
		if err != nil {
			return err
		}
		var enzymes []*xmldoc.Document
		for _, s := range sources(r.c.flats) {
			docs, err := p.stagedHarness(eng, sites[s.db], s, p.harnessSpans[op][s.db], op)
			if err != nil {
				eng.Close()
				return fmt.Errorf("staged harness %s: %w", s.db, err)
			}
			if s.db == dbEnzyme {
				enzymes = docs
			}
		}
		if i == len(p.loadOps)-1 {
			// The staged warehouse must be the whole one's equal.
			r.t.record(checkLoad(eng, r.o.docs))
			for v, flat := range p.versions {
				sites[dbEnzyme].Publish(flat)
				s := sources(r.c.flats)[0]
				if enzymes, err = p.stagedUpdate(eng, sites[dbEnzyme], s, enzymes, p.updateSpans[v], p.updateOps[v]); err != nil {
					eng.Close()
					return fmt.Errorf("staged update %d: %w", v+1, err)
				}
			}
			if len(p.versions) > 0 {
				r.t.record(checkLoad(eng, map[string]int{dbEnzyme: r.ev.docs()}))
			}
		}
		if err := eng.Close(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

func fetch(site *hounds.SimSource) ([]byte, string, error) {
	rc, version, err := site.Fetch()
	if err != nil {
		return nil, "", err
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	return data, version, err
}

// stagedHarness is Engine.Harness one call at a time.
func (p *tracedPass) stagedHarness(eng *core.Engine, site *hounds.SimSource, s source, parent, op int) ([]*xmldoc.Document, error) {
	runtime.GC()
	var data []byte
	if _, err := p.tr.timed("hounds.fetch", parent, op, func() (err error) {
		data, _, err = fetch(site)
		return err
	}); err != nil {
		return nil, err
	}
	var docs []*xmldoc.Document
	if _, err := p.tr.timed("hounds.transform", parent, op, func() error {
		return hounds.TransformStream(s.tr, bytes.NewReader(data), func(d *xmldoc.Document) error {
			docs = append(docs, d)
			return nil
		})
	}); err != nil {
		return nil, err
	}
	db, store := eng.DB(), eng.Store()
	if _, err := p.tr.timed("shred.clear", parent, op, func() error {
		if err := db.Begin(); err != nil {
			return err
		}
		if err := store.ClearDatabase(s.db); err != nil {
			return errors.Join(err, db.Rollback())
		}
		return db.Commit()
	}); err != nil {
		return nil, err
	}
	return docs, p.stagedInsert(eng, s.db, s.tr.DTD(), docs, true, parent, op)
}

// stagedInsert is core's load pipeline one call at a time: per chunk
// validate (when d is non-nil), shred, insert, commit and merge the
// keyword postings; then rebuild the indexes, ANALYZE, bump the epoch.
func (p *tracedPass) stagedInsert(eng *core.Engine, dbName string, d *dtd.DTD, docs []*xmldoc.Document, deferIdx bool, parent, op int) error {
	db, store := eng.DB(), eng.Store()
	sh, err := store.NewShredder(dbName)
	if err != nil {
		return err
	}
	if deferIdx {
		if err := db.DeferIndexes(); err != nil {
			return err
		}
	}
	for len(docs) > 0 {
		chunk := docs[:min(loadChunk, len(docs))]
		docs = docs[len(chunk):]
		if d != nil {
			if _, err := p.tr.timed("dtd.validate", parent, op, func() error {
				for _, doc := range chunk {
					if errs := d.Validate(doc); len(errs) > 0 {
						return fmt.Errorf("entry %q: %w", doc.Name, errs[0])
					}
				}
				return nil
			}); err != nil {
				return err
			}
		}
		batches := make([]*shred.DocBatch, len(chunk))
		p.tr.timed("shred.shred", parent, op, func() error {
			for i, doc := range chunk {
				batches[i] = sh.Shred(store.ReserveDocID(dbName), doc)
			}
			return nil
		})
		if err := db.Begin(); err != nil {
			return err
		}
		if _, err := p.tr.timed("shred.insert_chunk", parent, op, func() error {
			return store.InsertChunk(dbName, batches)
		}); err != nil {
			return errors.Join(err, db.Rollback())
		}
		if _, err := p.tr.timed("sql.commit", parent, op, db.Commit); err != nil {
			return err
		}
		p.tr.timed("shred.merge_keywords", parent, op, func() error {
			for _, b := range batches {
				store.MergeKeywords(dbName, b)
			}
			return nil
		})
	}
	if _, err := p.tr.timed("sql.resume_indexes", parent, op, db.ResumeIndexes); err != nil {
		return err
	}
	if _, err := p.tr.timed("sql.analyze", parent, op, store.AnalyzeStats); err != nil {
		return err
	}
	store.BumpEpoch(dbName)
	return nil
}

// stagedUpdate is Engine.Update one call at a time; old is the harvest
// the warehouse holds, the return value the one it holds afterwards.
func (p *tracedPass) stagedUpdate(eng *core.Engine, site *hounds.SimSource, s source, old []*xmldoc.Document, parent, op int) ([]*xmldoc.Document, error) {
	var (
		data    []byte
		version string
		fresh   []*xmldoc.Document
		cs      hounds.ChangeSet
	)
	if _, err := p.tr.timed("hounds.fetch", parent, op, func() (err error) {
		data, version, err = fetch(site)
		return err
	}); err != nil {
		return nil, err
	}
	if _, err := p.tr.timed("hounds.transform", parent, op, func() (err error) {
		fresh, err = s.tr.Transform(bytes.NewReader(data))
		return err
	}); err != nil {
		return nil, err
	}
	d := s.tr.DTD()
	if _, err := p.tr.timed("dtd.validate", parent, op, func() error {
		for _, doc := range fresh {
			if errs := d.Validate(doc); len(errs) > 0 {
				return fmt.Errorf("entry %q: %w", doc.Name, errs[0])
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	p.tr.timed("hounds.diff", parent, op, func() error {
		cs = hounds.DiffDocs(s.db, version, old, fresh)
		return nil
	})
	db, store := eng.DB(), eng.Store()
	if err := db.Begin(); err != nil {
		return nil, err
	}
	for _, name := range append(append([]string{}, cs.Removed...), cs.Modified...) {
		if _, err := p.tr.timed("shred.delete_doc", parent, op, func() error {
			return store.DeleteDocument(s.db, name)
		}); err != nil {
			return nil, errors.Join(err, db.Rollback())
		}
	}
	if _, err := p.tr.timed("sql.commit", parent, op, db.Commit); err != nil {
		return nil, err
	}
	byName := map[string]*xmldoc.Document{}
	for _, doc := range fresh {
		byName[doc.Name] = doc
	}
	var loads []*xmldoc.Document
	for _, name := range append(append([]string{}, cs.Modified...), cs.Added...) {
		loads = append(loads, byName[name])
	}
	return fresh, p.stagedInsert(eng, s.db, nil, loads, len(loads) >= loadChunk, parent, op)
}

// ---- turning spans and counters into per-layer metrics ----

// opSums adds up a per-span quantity by span name and operation, in
// microseconds.
type opSums map[string]map[int]float64

func (p *tracedPass) sums(per []time.Duration) opSums {
	out := opSums{}
	for i, s := range p.tr.spans {
		if out[s.Name] == nil {
			out[s.Name] = map[int]float64{}
		}
		out[s.Name][s.Op] += float64(per[i]) / float64(time.Microsecond)
	}
	return out
}

// over lists name's value for each of ops that has one.
func (s opSums) over(name string, ops []int) []float64 {
	var out []float64
	for _, op := range ops {
		if v, ok := s[name][op]; ok {
			out = append(out, v)
		}
	}
	return out
}

func (p *tracedPass) metrics() (metrics, detail map[string]metric) {
	dur, self := p.sums(p.tr.durations()), p.sums(p.tr.selfTimes())
	metrics, detail = map[string]metric{}, map[string]metric{}
	put := func(name, unit string, xs []float64, scale float64) {
		metrics[name] = metric{Value: median(xs) * scale, Unit: unit, Samples: len(xs)}
	}
	n := float64(len(p.queryOps))

	// Query path, median microseconds per operation.
	put("server.request_us", "us", dur.over("server.request", p.queryOps), 1)
	put("server.request_self_us", "us", self.over("server.request", p.queryOps), 1)
	put("core.session_us", "us", dur.over("core.session.query", p.queryOps), 1)
	put("core.session_self_us", "us", self.over("core.session.query", p.queryOps), 1)
	put("xq.parse_us", "us", dur.over("xq.parse", p.queryOps), 1)
	put("xq2sql.translate_us", "us", self.over("xq2sql.translate", p.queryOps), 1)
	put("inverted.lookup_us", "us", dur.over("inverted.lookup", p.queryOps), 1)
	put("sql.parse_us", "us", dur.over("sql.parse", p.queryOps), 1)
	put("sql.exec_us", "us", dur.over("sql.exec", p.queryOps), 1)
	put("core.result_rows_us", "us", dur.over("core.result_rows", p.queryOps), 1)
	put("core.result_json_us", "us", dur.over("core.result_json", p.queryOps), 1)
	put("core.result_decode_us", "us", dur.over("core.result_decode", p.queryOps), 1)
	put("core.result_xml_us", "us", dur.over("core.result_xml", p.queryOps), 1)
	put("shred.reconstruct_us", "us", dur.over("shred.reconstruct", p.queryOps), 1)
	put("core.result_json_bytes", "bytes", p.jsonBytes, 1)

	// The paper's E7 statement, per operation and per query kind:
	// reconstructing the hit documents against finding them.
	var e7 []float64
	byKind := map[string][]int{}
	for i, op := range p.queryOps {
		e7 = append(e7, ratio(dur["shred.reconstruct"][op], dur["sql.exec"][op]))
		byKind[p.kinds[i]] = append(byKind[p.kinds[i]], op)
	}
	put("shred.reconstruct_over_exec", "ratio", e7, 1)
	for kind, ops := range byKind {
		for _, name := range []string{"server.request", "sql.exec", "shred.reconstruct"} {
			xs := dur.over(name, ops)
			detail[kind+"."+name+"_us"] = metric{Value: median(xs), Unit: "us", Samples: len(xs)}
		}
	}

	// Shares of the request: what the front end costs (request handling
	// and, where the plan cache missed, parse and translate), and how
	// much of Session.Query the stages account for.
	var requestTotal, frontTotal, sessionTotal, sessionSelf float64
	for _, op := range p.queryOps {
		requestTotal += dur["server.request"][op]
		frontTotal += self["server.request"][op]
		sessionTotal += dur["core.session.query"][op]
		sessionSelf += self["core.session.query"][op]
	}
	for i, s := range p.tr.spans {
		switch s.Name {
		case "xq.parse", "xq2sql.translate", "sql.parse":
			if s.Parent >= 0 {
				frontTotal += float64(p.tr.spans[i].dur()) / float64(time.Microsecond)
			}
		}
	}
	metrics["trace.frontend_share"] = metric{Value: ratio(frontTotal, requestTotal), Unit: "ratio", Samples: len(p.queryOps)}
	metrics["trace.query_stage_sum_ratio"] = metric{Value: ratio(sessionTotal-sessionSelf, sessionTotal), Unit: "ratio", Samples: len(p.queryOps)}
	requestMs := dur.over("server.request", p.queryOps)
	metrics["trace.overhead_ratio"] = metric{Value: ratio(median(requestMs)/1000, median(p.plainMs)), Unit: "ratio", Samples: len(requestMs)}

	// Counts per operation, from the registry read around each
	// in-process Session.Query: one client, no timers.
	c := p.perOp
	perOp := func(name, key string) {
		unit := "count"
		if strings.HasSuffix(key, "bytes") {
			unit = "bytes"
		}
		metrics[name] = metric{Value: ratio(c[key], n), Unit: unit, Samples: len(p.queryOps)}
	}
	share := func(name string, a, b float64) {
		metrics[name] = metric{Value: ratio(a, b), Unit: "ratio", Samples: len(p.queryOps)}
	}
	share("core.plancache_hit_ratio", c["plancache.hits"], c["plancache.hits"]+c["plancache.misses"])
	share("core.native_fallback_ratio", c["query.native"], c["query.count"])
	share("sql.rows_examined_per_row", c["heap.records_scanned"], c["query.rows"])
	share("bufpool.hit_ratio", c["pool.hits"], c["pool.hits"]+c["pool.misses"])
	perOp("heap.pages_scanned_per_op", "heap.pages_scanned")
	perOp("btree.searches_per_op", "index.btree_searches")
	perOp("bufpool.hits_per_op", "pool.hits")
	perOp("bufpool.misses_per_op", "pool.misses")
	perOp("bufpool.evictions_per_op", "pool.evictions")
	perOp("sql.join_spill_bytes_per_op", "exec.join_spill_bytes")
	perOp("go.allocs_per_op", "go.allocs")
	perOp("go.alloc_bytes_per_op", "go.alloc_bytes")

	// Ingest path, median milliseconds per load of the whole corpus.
	for _, stage := range []string{"hounds.fetch", "hounds.transform", "dtd.validate", "shred.shred", "shred.clear",
		"shred.insert_chunk", "shred.merge_keywords", "sql.commit", "sql.resume_indexes", "sql.analyze"} {
		put(stage+"_ms", "ms", dur.over(stage, p.loadOps), 1e-3)
	}
	put("core.harness_ms", "ms", dur.over("core.harness", p.loadOps), 1e-3)
	put("core.harness_self_ms", "ms", self.over("core.harness", p.loadOps), 1e-3)
	var harnessTotal, harnessSelf float64
	for _, op := range p.loadOps {
		harnessTotal += dur["core.harness"][op]
		harnessSelf += self["core.harness"][op]
	}
	metrics["trace.ingest_stage_sum_ratio"] = metric{Value: ratio(harnessTotal-harnessSelf, harnessTotal), Unit: "ratio", Samples: len(p.loadOps)}

	// Update path, per cycle; a deleted document, per document.
	put("core.update_ms", "ms", dur.over("core.update", p.updateOps), 1e-3)
	put("core.update_self_ms", "ms", self.over("core.update", p.updateOps), 1e-3)
	put("hounds.diff_ms", "ms", dur.over("hounds.diff", p.updateOps), 1e-3)
	var deletes []float64
	for _, s := range p.tr.spans {
		if s.Name == "shred.delete_doc" {
			deletes = append(deletes, float64(s.dur())/float64(time.Microsecond))
		}
	}
	put("shred.delete_doc_us", "us", deletes, 1)
	metrics["core.plancache_invalidations_per_cycle"] = metric{
		Value: ratio(p.invalidated, float64(len(p.updateOps))), Unit: "count", Samples: len(p.updateOps)}

	// Counts per load, from the registry of each whole load's engine.
	perLoad := func(name, unit string, value func(counters) float64) {
		var xs []float64
		for _, m := range p.loadCounters {
			xs = append(xs, value(m))
		}
		put(name, unit, xs, 1)
	}
	perLoad("wal.appends_per_load", "count", func(m counters) float64 { return m["wal.appends"] })
	perLoad("wal.bytes_per_load", "bytes", func(m counters) float64 { return m["wal.bytes"] })
	perLoad("wal.fsyncs_per_load", "count", func(m counters) float64 { return m["wal.fsyncs"] })
	perLoad("core.chunks_per_load", "count", func(m counters) float64 { return m["ingest.chunks"] })
	perLoad("bufpool.misses_per_load", "count", func(m counters) float64 { return m["pool.misses"] })
	perLoad("bufpool.evictions_per_load", "count", func(m counters) float64 { return m["pool.evictions"] })
	perLoad("shred.tuples_per_doc", "count", func(m counters) float64 { return ratio(m["ingest.tuples"], m["ingest.docs"]) })
	put("disk.file_pages", "pages", p.loadPages, 1)
	return metrics, detail
}
