package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"xomatiq/internal/benchutil"
	"xomatiq/internal/core"
	"xomatiq/internal/hounds"
	"xomatiq/internal/server"
)

// tally counts operations attempted and operations that errored, were
// shed or answered wrongly; it keeps the first few reasons for the report.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

// record counts one operation; a non-nil err makes it a failure.
func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.reasons) < 8 {
			t.reasons = append(t.reasons, err.Error())
		}
	}
}

// env is one warehouse being served: engine, in-process HTTP server on a
// loopback port, and the simulated remote sites behind its hounds.
type env struct {
	dir   string
	eng   *core.Engine
	srv   *server.Server
	url   string
	sites map[string]*hounds.SimSource
}

// loadSample is what one bring measured.
type loadSample struct {
	docs      int
	loadSecs  float64 // RegisterSource + Harness of every source, to the last commit
	reopenMs  float64 // core.Open on the closed file + server start + first Fig. 9 answer; median of reopens
	walBytes  float64
	filePages float64
	srcBytes  float64
	m         counters // the loader's registry when it finished
}

// openEngine opens the warehouse in dir with the default configuration
// (4096 x 8 KiB pool, WAL fsync on every commit) and registers the
// simulated sites, which a reopened engine has forgotten.
func openEngine(dir string, f *benchutil.Flats, sites map[string]*hounds.SimSource) (*core.Engine, error) {
	eng, err := core.Open(core.NewConfig(filepath.Join(dir, "warehouse.db")))
	if err != nil {
		return nil, err
	}
	for _, s := range sources(f) {
		if err := eng.RegisterSource(s.db, sites[s.db], s.tr); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return eng, nil
}

// newSites wraps every flat file of f in a simulated remote site.
func newSites(f *benchutil.Flats) map[string]*hounds.SimSource {
	sites := map[string]*hounds.SimSource{}
	for _, s := range sources(f) {
		sites[s.db] = hounds.NewSimSource(s.db, s.flat)
	}
	return sites
}

// load plays the loader process: harness every source of f into a fresh
// warehouse in dir, check the result against the oracle into t, close.
// harness is eng.Harness, or the traced pass's wrapper around it.
func load(dir string, f *benchutil.Flats, sites map[string]*hounds.SimSource, o *oracle, t *tally,
	harness func(eng *core.Engine, db string) (int, error)) (loadSample, error) {
	var ls loadSample
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ls, err
	}
	start := time.Now()
	eng, err := openEngine(dir, f, sites)
	if err != nil {
		return ls, err
	}
	for _, s := range sources(f) {
		n, err := harness(eng, s.db)
		if err != nil {
			eng.Close()
			return ls, fmt.Errorf("harness %s: %w", s.db, err)
		}
		ls.docs += n
	}
	ls.loadSecs = time.Since(start).Seconds()
	ls.m = eng.Registry().Snapshot().Metrics()
	ls.walBytes, ls.srcBytes = ls.m["wal.bytes"], ls.m["ingest.source_bytes"]
	ls.filePages = float64(eng.DB().Stats().FilePages)
	t.record(checkLoad(eng, o.docs))
	return ls, eng.Close()
}

// serve plays the server process: open the closed warehouse in dir,
// listen on a loopback port and answer a first Fig. 9, which is checked
// into t. It returns the milliseconds from open to decoded answer.
func serve(dir string, f *benchutil.Flats, sites map[string]*hounds.SimSource, o *oracle, t *tally) (*env, float64, error) {
	start := time.Now()
	e := &env{dir: dir, sites: sites}
	var err error
	if e.eng, err = openEngine(dir, f, sites); err != nil {
		return nil, 0, err
	}
	e.srv = server.New(e.eng, server.Config{HTTPAddr: "127.0.0.1:0"})
	if err := e.srv.Start(); err != nil {
		e.eng.Close()
		return nil, 0, err
	}
	e.url = "http://" + e.srv.HTTPAddr() + "/v1/query"
	c := newClient()
	defer c.CloseIdleConnections()
	res, err := e.post(c, fig9.text)
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	if err == nil {
		err = o.check(fig9, res)
	}
	t.record(err)
	return e, ms, nil
}

// reopens is how many times bring opens the loaded file: each time on a
// cold pool, so that reopen_first_query_ms is a median, not one sample.
const reopens = 3

// bring builds a served warehouse the way a deployment does: loader
// process, then server process. Only a broken harness is an error; wrong
// answers are counted in t.
func bring(dir string, f *benchutil.Flats, o *oracle, t *tally) (*env, loadSample, error) {
	sites := newSites(f)
	ls, err := load(dir, f, sites, o, t, (*core.Engine).Harness)
	if err != nil {
		return nil, ls, err
	}
	var e *env
	var ms []float64
	for i := 0; i < reopens; i++ {
		if e != nil {
			if err := e.stop(); err != nil {
				return nil, ls, err
			}
		}
		var m float64
		if e, m, err = serve(dir, f, sites, o, t); err != nil {
			return nil, ls, err
		}
		ms = append(ms, m)
	}
	ls.reopenMs = median(ms)
	return e, ls, nil
}

// checkLoad verifies a finished load: the relational engine is
// consistent and every database holds the generator's document count.
func checkLoad(eng *core.Engine, docs map[string]int) error {
	if err := eng.DB().CheckConsistency(); err != nil {
		return err
	}
	for db, want := range docs {
		got, err := eng.DocCount(db)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("%s holds %d documents, generator made %d", db, got, want)
		}
	}
	return nil
}

// stop drains the server and closes the engine; the files stay.
func (e *env) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if cerr := e.eng.Close(); err == nil {
		err = cerr
	}
	return err
}

// close stops the warehouse and removes its files.
func (e *env) close() error {
	err := e.stop()
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// newClient returns an HTTP client with its own keep-alive connection,
// so each simulated caller holds one connection like a real one would.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{}, Timeout: 60 * time.Second}
}

// post sends one query over HTTP and returns the decoded result: the
// clock a caller of this function holds covers request encoding, the
// round trip, reading the body and decoding it.
func (e *env) post(c *http.Client, text string) (*core.Result, error) {
	body, err := json.Marshal(map[string]string{"query": text})
	if err != nil {
		return nil, err
	}
	resp, err := c.Post(e.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return core.ResultFromJSON(data)
}

// latencies collects per-query-kind latencies in milliseconds.
type latencies map[string][]float64

func (l latencies) all() []float64 {
	var out []float64
	for _, xs := range l {
		out = append(out, xs...)
	}
	return out
}

func (l latencies) merge(other latencies) {
	for k, xs := range other {
		l[k] = append(l[k], xs...)
	}
}

// ask sends q, times it, checks the answer with check and records both.
func (e *env) ask(c *http.Client, q query, check func(query, *core.Result) error, t *tally, lat latencies) {
	start := time.Now()
	res, err := e.post(c, q.text)
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	if err == nil {
		err = check(q, res)
	}
	t.record(err)
	if err == nil {
		lat[q.kind] = append(lat[q.kind], ms)
	}
}

// update publishes flat on the ENZYME site and applies it; it returns
// the seconds Update took and checks the size of the change set.
func (e *env) update(flat string, changed int, t *tally) float64 {
	e.sites[dbEnzyme].Publish(flat)
	start := time.Now()
	cs, err := e.eng.Update(dbEnzyme)
	secs := time.Since(start).Seconds()
	if err == nil && cs.Total() != changed {
		err = fmt.Errorf("update applied %d changes, published %d", cs.Total(), changed)
	}
	t.record(err)
	return secs
}
