package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"xomatiq/internal/benchutil"
	"xomatiq/internal/core"
)

// workload is one traffic mix over one corpus. The four differ in which
// layers they load, see README.md; what they share is the life of a
// warehouse: generated, loaded, closed, reopened behind a server, warmed
// up, and only then measured.
type workload struct {
	name    string
	why     string
	size    sizes
	clients int // closed-loop HTTP clients in the measured window
	// stream is the endless query sequence of one client.
	stream func(r *run, client int) func() query
	// warm fills caches before the window: plan cache, buffer pool, and
	// the engine's document cache that a first Update otherwise rebuilds.
	warm func(r *run, e *env) error
	// window is the measured part; one call runs for about r.slice
	// seconds.
	window func(r *run, e *env) error
	// keep says whether window measures on the warehouses set-up builds
	// (a slice of the window on each); bulk-load builds its own, over
	// and over, and runs its whole window after the set-ups.
	keep bool
	// The traced pass runs a fixed count of everything, scaled by
	// --seconds so that its counters repeat exactly: tracedOps queries
	// per second of window, tracedLoads loads, updates update cycles.
	tracedOps   float64
	tracedLoads int
	updates     int
}

var workloads = []*workload{
	{
		name: "point-lookup", size: sizes{Enzyme: 500}, clients: 2, keep: true,
		why:    "one row out of a warehouse that fits the pool: request handling, parse, translate, plan cache, snapshot pin and B-tree probes are all there is to pay for",
		stream: (*run).lookups,
		warm:   func(r *run, e *env) error { r.read(e, 0, 200, r.lookups(0)); return nil },
		window: (*run).readFor, tracedOps: 100, tracedLoads: 3,
	},
	{
		name: "paper-queries", size: sizes{Enzyme: 2000, EMBL: 1500, SProt: 1500}, clients: 2, keep: true,
		why:    "Fig. 8/9/11 at 1:4:4 over a 72 MB file and a 32 MiB pool: scan, filter, hash join, pool eviction and result encoding do the work, parse and translate are cached away",
		stream: (*run).paper,
		warm:   func(r *run, e *env) error { r.read(e, 0, len(paperCycle), r.paper(0)); return nil },
		window: (*run).readFor, tracedOps: 3, tracedLoads: 1,
	},
	{
		name: "bulk-load", size: sizes{Enzyme: 1000, EMBL: 500, SProt: 500},
		why:    "one writer, nothing reads beside it: load three sources, reopen, verify on a cold pool, four 5 % updates; transform, validate, shred, heap, WAL, index build and ANALYZE carry it",
		stream: (*run).verification,
		warm:   func(r *run, e *env) error { return nil },
		window: (*run).bulkLoad, tracedOps: 3, tracedLoads: 3, updates: 4,
	},
	{
		name: "query-during-update", size: sizes{Enzyme: 1000}, clients: 1, keep: true,
		why:    "one reader (Zipf lookups, every 8th a Fig. 9) beside one writer applying 5 % updates: MVCC page versions, epoch pins, plan-cache invalidation and the writer token, which neither pure workload touches",
		stream: (*run).lookupsAndFig9,
		warm: func(r *run, e *env) error {
			r.evolving = true
			if err := r.applyNext(e); err != nil {
				return err
			}
			r.read(e, 0, 100, r.lookupsAndFig9(0))
			return nil
		},
		window: (*run).queryDuringUpdate, tracedOps: 16, tracedLoads: 3, updates: 10,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// options are the knobs of one run.
type options struct {
	seed    int64
	seconds float64
	outDir  string
	setups  int // times set-up is repeated; setup_s is the median
}

// run is the state of one workload run: inputs, oracle and everything
// measured.
type run struct {
	w   *workload
	opt options
	c   *corpus
	o   *oracle // exact answers for the corpus as generated
	t   tally

	// ev releases ENZYME versions for the workloads that update. Once a
	// version has been applied beside readers (evolving), their answers
	// are judged by checkEvolving; seen is each reader's memory of revs.
	ev       *evolver
	evolving bool
	seen     []map[string]int

	scratch int // counter for warehouse directories

	mu         sync.Mutex
	lat        latencies
	readSecs   float64 // wall time of the read phases
	loadDocs   float64 // entries committed by measured Harness calls
	loadSecs   float64
	updDocs    float64 // entries changed by measured Update calls
	updSecs    float64
	setupSecs  []float64
	loads      []loadSample // every load whose numbers count for this workload
	iterations int          // bulk-load iterations, or update cycles beside the reader
	slice      float64      // seconds one call of window measures
	sliceP50   []float64    // median latency of each slice, for the report
	sliceRate  []float64    // queries per second of each slice
	planHits   uint64
	planMisses uint64
}

func newRun(w *workload, opt options) (*run, error) {
	r := &run{w: w, opt: opt, lat: latencies{}}
	// The oracle is the benchmark's own cost, not the system's: it is
	// computed once, outside set-up, from the same seeded corpus.
	c, err := genCorpus(w.size, opt.seed)
	if err != nil {
		return nil, err
	}
	if r.o, err = buildOracle(c.flats); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *run) dir() string {
	r.scratch++
	return filepath.Join(r.opt.outDir, fmt.Sprintf("scratch-%s-%d", r.w.name, r.scratch))
}

func (r *run) deadline() time.Time {
	return time.Now().Add(time.Duration(r.slice * float64(time.Second)))
}

// fresh generates the corpus anew and resets what depends on it.
func (r *run) fresh() (genSecs float64, err error) {
	start := time.Now()
	if r.c, err = genCorpus(r.w.size, r.opt.seed); err != nil {
		return 0, err
	}
	genSecs = time.Since(start).Seconds()
	r.evolving = false
	r.seen = make([]map[string]int, max(r.w.clients, 1))
	for i := range r.seen {
		r.seen[i] = map[string]int{}
	}
	if r.w.updates > 0 {
		r.ev = newEvolver(r.c.enzymes, r.opt.seed)
	}
	return genSecs, nil
}

// setUp generates the corpus, brings up a warehouse and warms it; the
// returned seconds cover those steps and leave out the oracle's checks.
func (r *run) setUp() (*env, float64, error) {
	genSecs, err := r.fresh()
	if err != nil {
		return nil, 0, err
	}
	e, ls, err := bring(r.dir(), r.c.flats, r.o, &r.t)
	if err != nil {
		return nil, 0, err
	}
	// Warm-up answers are checked but are not measurements.
	lat, readSecs, updDocs, updSecs := r.lat, r.readSecs, r.updDocs, r.updSecs
	r.lat = latencies{}
	start := time.Now()
	if err := r.w.warm(r, e); err != nil {
		e.close()
		return nil, 0, err
	}
	warmSecs := time.Since(start).Seconds()
	r.lat, r.readSecs, r.updDocs, r.updSecs = lat, readSecs, updDocs, updSecs
	r.loads = append(r.loads, ls)
	return e, genSecs + ls.loadSecs + ls.reopenMs/1000 + warmSecs, nil
}

// measure runs the untraced pass. Set-up is repeated opt.setups times and
// setup_s is the median. Each warehouse set-up builds serves an equal
// slice of the window, so the end-to-end numbers come from several
// server instances, connections and moments rather than one; bulk-load,
// which builds its own warehouses, runs its whole window afterwards.
func (r *run) measure() error {
	r.slice = r.opt.seconds
	if r.w.keep {
		r.slice /= float64(r.opt.setups)
	}
	for i := 0; i < r.opt.setups; i++ {
		e, secs, err := r.setUp()
		if err != nil {
			return err
		}
		r.setupSecs = append(r.setupSecs, secs)
		if r.w.keep {
			pooled, readSecs := r.lat, r.readSecs
			r.lat, r.readSecs = latencies{}, 0
			err = r.w.window(r, e)
			r.sliceP50 = append(r.sliceP50, median(r.lat.all()))
			r.sliceRate = append(r.sliceRate, ratio(float64(len(r.lat.all())), r.readSecs))
			pooled.merge(r.lat)
			r.lat, r.readSecs = pooled, readSecs+r.readSecs
			if snap, serr := e.eng.Snapshot(); serr == nil {
				r.planHits += snap.PlanCache.Hits
				r.planMisses += snap.PlanCache.Misses
			}
		}
		if cerr := e.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if r.w.keep {
		return nil
	}
	r.loads = nil // the window's own loads are the measurements
	return r.w.window(r, nil)
}

// ---- query streams ----

func (r *run) pickIDs(client int) *idPicker {
	return newIDPicker(r.c.flats.EnzymeIDs, r.opt.seed*31+int64(client))
}

func (r *run) lookups(client int) func() query {
	p := r.pickIDs(client)
	return func() query { return lookup(p.next()) }
}

func (r *run) lookupsAndFig9(client int) func() query {
	p := r.pickIDs(client)
	n := 0
	return func() query {
		n++
		if n%8 == 0 {
			return fig9
		}
		return lookup(p.next())
	}
}

// paper cycles the figures; the second client starts mid-cycle so the
// two do not march in step.
func (r *run) paper(client int) func() query {
	n := client * 4
	return func() query {
		q := paperCycle[n%len(paperCycle)]
		n++
		return q
	}
}

// verificationReads is what a loader asks a freshly opened warehouse
// before trusting it: each figure once and 97 point lookups.
const verificationReads = 100

func (r *run) verification(client int) func() query {
	p := r.pickIDs(client)
	n := 0
	return func() query {
		n++
		switch n % verificationReads {
		case 1:
			return fig9
		case 2:
			return fig8
		case 3:
			return fig11
		}
		return lookup(p.next())
	}
}

// ---- readers ----

func (r *run) checker(client int) func(query, *core.Result) error {
	if !r.evolving {
		return r.o.check
	}
	seen := r.seen[client]
	return func(q query, res *core.Result) error { return r.o.checkEvolving(r.ev, q, res, seen) }
}

// readLoop issues queries from one stream over one connection while
// more says so.
func (r *run) readLoop(e *env, client int, next func() query, more func(i int) bool) {
	c := newClient()
	defer c.CloseIdleConnections()
	check := r.checker(client)
	lat := latencies{}
	for i := 0; more(i); i++ {
		e.ask(c, next(), check, &r.t, lat)
	}
	r.mu.Lock()
	r.lat.merge(lat)
	r.mu.Unlock()
}

// read issues n queries as one client and counts the time as read time.
func (r *run) read(e *env, client, n int, next func() query) {
	start := time.Now()
	r.readLoop(e, client, next, func(i int) bool { return i < n })
	r.readSecs += time.Since(start).Seconds()
}

// readFor is the closed loop of the read-only workloads: every client
// waits for its reply before it sends the next request, until the
// window ends.
func (r *run) readFor(e *env) error {
	start, deadline := time.Now(), r.deadline()
	var wg sync.WaitGroup
	for c := 0; c < r.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r.readLoop(e, c, r.w.stream(r, c), func(int) bool { return time.Now().Before(deadline) })
		}(c)
	}
	wg.Wait()
	r.readSecs += time.Since(start).Seconds()
	return nil
}

// ---- writers ----

// applyNext publishes the evolver's next version and applies it.
func (r *run) applyNext(e *env) error {
	flat, changed, err := r.ev.step()
	if err != nil {
		return err
	}
	secs := e.update(flat, changed, &r.t)
	r.mu.Lock()
	r.updDocs += float64(changed)
	r.updSecs += secs
	r.mu.Unlock()
	return nil
}

// queryDuringUpdate is the window of the mixed workload: the reader and
// the writer start together and stop at the same deadline; afterwards
// the warehouse must equal the last version exactly.
func (r *run) queryDuringUpdate(e *env) error {
	start, deadline := time.Now(), r.deadline()
	var wg sync.WaitGroup
	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for werr == nil && time.Now().Before(deadline) {
			werr = r.applyNext(e)
			r.iterations++
		}
	}()
	r.readLoop(e, 0, r.w.stream(r, 0), func(int) bool { return time.Now().Before(deadline) })
	r.readSecs += time.Since(start).Seconds()
	wg.Wait()
	if werr != nil {
		return werr
	}
	return r.checkFinal(e, nil)
}

// checkFinal compares a quiescent warehouse with the native oracle over
// the evolver's current ENZYME version: document count, consistency,
// Fig. 9 and every tenth generated id as a point lookup. final may carry
// that oracle when the caller already has it.
func (r *run) checkFinal(e *env, final *oracle) error {
	if final == nil {
		flat, err := r.ev.render()
		if err != nil {
			return err
		}
		if final, err = buildOracle(&benchutil.Flats{Enzyme: flat}); err != nil {
			return err
		}
	}
	r.t.record(checkLoad(e.eng, final.docs))
	c := newClient()
	defer c.CloseIdleConnections()
	discard := latencies{}
	e.ask(c, fig9, final.check, &r.t, discard)
	for i, id := range r.c.flats.EnzymeIDs {
		if i%10 == 0 {
			e.ask(c, lookup(id), final.check, &r.t, discard)
		}
	}
	return nil
}

// bulkLoad is the window of the write-only workload. Each iteration:
// fresh warehouse, harness three sources, close, reopen and first Fig. 9,
// verification reads on the cold pool, r.w.updates update cycles, and an
// exact check of the result. Iterations start while the window lasts.
func (r *run) bulkLoad(_ *env) error {
	// Every iteration starts from the generated corpus again, so the
	// versions and the final answers are the same each time.
	type version struct {
		flat    string
		changed int
	}
	var versions []version
	for i := 0; i < r.w.updates; i++ {
		flat, changed, err := r.ev.step()
		if err != nil {
			return err
		}
		versions = append(versions, version{flat, changed})
	}
	final, err := buildOracle(&benchutil.Flats{Enzyme: versions[len(versions)-1].flat})
	if err != nil {
		return err
	}
	deadline := r.deadline()
	for r.iterations == 0 || time.Now().Before(deadline) {
		r.iterations++
		e, ls, err := bring(r.dir(), r.c.flats, r.o, &r.t)
		if err != nil {
			return err
		}
		r.loads = append(r.loads, ls)
		r.loadDocs += float64(ls.docs)
		r.loadSecs += ls.loadSecs
		r.read(e, 0, verificationReads, r.w.stream(r, 0))
		for _, v := range versions {
			r.updSecs += e.update(v.flat, v.changed, &r.t)
			r.updDocs += float64(v.changed)
		}
		err = r.checkFinal(e, final)
		if cerr := e.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
