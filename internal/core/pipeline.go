// pipeline.go implements the parallel bulk-load ingest pipeline behind
// Harness and Update. Documents stream out of the transformer on a
// producer goroutine, a worker pool fans DTD validation and shredding
// across CPUs, and a single-threaded collector reorders the results by
// pre-assigned document id and commits them in crash-atomic chunks of
// bulk per-table inserts. Because ids are assigned in stream order and
// the collector merges in that order, the warehouse contents are
// byte-identical for any worker count — workers=1 is the sequential
// reference. Secondary index maintenance is deferred for the duration
// of a bulk load (the durable indexesStale flag covers crashes) and the
// indexes are bulk-rebuilt from sorted runs afterwards.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"xomatiq/internal/dtd"
	"xomatiq/internal/shred"
	"xomatiq/internal/xmldoc"
)

// loadChunkSize is the number of documents committed per crash-atomic
// chunk: a crash mid-load leaves a consistent committed prefix.
const loadChunkSize = 200

var errLoadAborted = errors.New("core: load aborted")

// LoadStats summarises the most recent harness or update load.
type LoadStats struct {
	Docs    int           // documents shredded
	Tuples  int           // relational tuples written (excluding path rows)
	Bytes   int64         // raw source bytes fetched
	Elapsed time.Duration // wall clock of the whole load
	Workers int           // shredding goroutines used
}

// DocsPerSec reports document throughput.
func (s LoadStats) DocsPerSec() float64 { return rate(float64(s.Docs), s.Elapsed) }

// TuplesPerSec reports tuple throughput.
func (s LoadStats) TuplesPerSec() float64 { return rate(float64(s.Tuples), s.Elapsed) }

// MBPerSec reports raw source throughput in MiB/s.
func (s LoadStats) MBPerSec() float64 { return rate(float64(s.Bytes)/(1<<20), s.Elapsed) }

func rate(n float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return n / d.Seconds()
}

// Summary renders the one-line throughput report printed after a load.
func (s LoadStats) Summary() string {
	return fmt.Sprintf("%d docs, %d tuples, %.2f MiB in %s (workers=%d): %.0f docs/s, %.0f tuples/s, %.2f MiB/s",
		s.Docs, s.Tuples, float64(s.Bytes)/(1<<20), s.Elapsed.Round(time.Millisecond),
		s.Workers, s.DocsPerSec(), s.TuplesPerSec(), s.MBPerSec())
}

// lastLoadStats reports throughput of the most recent load; it surfaces
// publicly as the LastLoad field of Snapshot (the former
// Engine.LastLoadStats thin view collapsed into the unified surface).
func (e *Engine) lastLoadStats() LoadStats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.lastLoad
}

func (e *Engine) setLoadStats(s LoadStats) {
	e.statsMu.Lock()
	e.lastLoad = s
	e.statsMu.Unlock()
	e.reg.Ingest.Loads.Inc()
	e.reg.Ingest.SourceBytes.Add(uint64(s.Bytes))
}

// loadWorkers resolves the configured ingest parallelism.
func (e *Engine) loadWorkers() int {
	if e.cfg.LoadWorkers > 0 {
		return e.cfg.LoadWorkers
	}
	return runtime.GOMAXPROCS(0)
}

type loadJob struct {
	seq   int
	docID int
	doc   *xmldoc.Document
}

type loadResult struct {
	seq   int
	batch *shred.DocBatch
	err   error
}

// runLoadPipeline shreds every document produce emits into dbName and
// returns the entry names in emit order plus the tuple count written.
// No document outlives its shredding: a load holds at most a chunk of
// batches, whatever the harvest's size.
// produce runs on its own goroutine; emit returns an error once the
// pipeline aborts, which produce must propagate. When d is non-nil each
// document is DTD-validated on a worker before shredding; an entry name
// the load already carried fails the load the same way. deferIdx
// elects the bulk index path: maintenance off during the load, bulk
// rebuild from sorted runs at the end (small delta loads keep inline
// maintenance instead, which is cheaper than a full rebuild). clear
// removes the database's previous harvest first, in the same batch as
// the first chunk: readers see the old harvest until the new one's first
// chunk commits, never an empty warehouse between the two.
//
// Error handling: a failed chunk is rolled back; whatever prefix
// committed before the failure stays, is reindexed, and the error is
// returned — the next harness replaces the harvest wholesale. A failure
// before the first chunk commits rolls the clear back with it, leaving
// the previous harvest in place. The store's dictionary commits and rolls
// back with the rows. Cancellation is honoured between documents and
// chunks, never inside a chunk commit.
func (e *Engine) runLoadPipeline(ctx context.Context, dbName string, d *dtd.DTD, deferIdx, clear bool, produce func(emit func(*xmldoc.Document) error) error) ([]string, int, error) {
	sh, err := e.store.NewShredder(dbName)
	if err != nil {
		return nil, 0, err
	}
	// Inside a transaction the whole load is one open batch: chunks are
	// not individually committed, and index maintenance stays inline so
	// the batch's indexes remain usable by the transaction's own reads
	// (ResumeIndexes would commit, which a batch must not).
	txMode := e.txLoad != nil
	if txMode {
		deferIdx = false
	}
	if deferIdx {
		if err := e.db.DeferIndexes(); err != nil {
			return nil, 0, err
		}
	}
	// open: a batch is open that the next chunk joins rather than begins.
	// The clear runs before the producer starts, since it resets the doc
	// ids the producer hands out.
	open := false
	if clear && !txMode {
		if err := e.db.Begin(); err != nil {
			return nil, 0, errors.Join(err, e.db.ResumeIndexes())
		}
		open = true
	}
	if clear {
		if err := e.store.ClearDatabase(dbName); err != nil {
			if open {
				// The rollback also ends the deferred-index window.
				err = errors.Join(err, e.db.Rollback())
			}
			return nil, 0, err
		}
	}
	workers := e.loadWorkers()
	jobCh := make(chan loadJob, workers)
	resCh := make(chan loadResult, workers)
	prodErr := make(chan error, 1)
	abort := make(chan struct{})
	var abortOnce sync.Once
	stop := func() { abortOnce.Do(func() { close(abort) }) }
	defer stop()

	// Producer: number documents in stream order. ReserveDocID runs here
	// and nowhere else during the load, so ids match a workers=1 load.
	go func() {
		seq := 0
		err := produce(func(doc *xmldoc.Document) error {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			job := loadJob{seq: seq, docID: e.store.ReserveDocID(dbName), doc: doc}
			select {
			case jobCh <- job:
				seq++
				return nil
			case <-abort:
				return errLoadAborted
			}
		})
		close(jobCh)
		prodErr <- err
	}()

	// Workers: DTD validation and shredding, pure CPU against the
	// shredder's immutable path snapshot.
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobCh {
				res := loadResult{seq: job.seq}
				if d != nil {
					if errs := d.Validate(job.doc); len(errs) > 0 {
						res.err = fmt.Errorf("core: %s entry %q: %w", dbName, job.doc.Name, errs[0])
					}
				}
				if res.err == nil {
					res.batch = sh.Shred(job.docID, job.doc)
				}
				select {
				case resCh <- res:
				case <-abort:
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(resCh) }()

	// Collector: reorder by sequence number (the out-of-order window is
	// bounded by the worker count plus channel buffers) and commit
	// crash-atomic chunks. All disk I/O happens on this goroutine, in
	// deterministic order.
	var (
		names   []string
		seen    = map[string]bool{}
		tuples  int
		chunk   []*shred.DocBatch
		pending = map[int]loadResult{}
		next    int
		failErr error
	)
	// flush commits the pending chunk; with the clear still open it
	// commits that batch even when no document followed it. Inside a
	// transaction the batch is already open and a failed chunk aborts the
	// whole transaction in tx.go. Otherwise a failed chunk leaves its
	// batch open for the tail to roll back.
	flush := func() error {
		if len(chunk) == 0 && !open {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if !txMode && !open {
			if err := e.db.Begin(); err != nil {
				return err
			}
			open = true
		}
		if err := e.store.InsertChunk(dbName, chunk); err != nil {
			return err
		}
		if !txMode {
			open = false
			if err := e.db.Commit(); err != nil {
				return err
			}
		}
		chunkTuples := 0
		for _, b := range chunk {
			chunkTuples += b.Tuples()
		}
		tuples += chunkTuples
		e.reg.Ingest.Chunks.Inc()
		e.reg.Ingest.Docs.Add(uint64(len(chunk)))
		e.reg.Ingest.Tuples.Add(uint64(chunkTuples))
		chunk = chunk[:0]
		return nil
	}
collect:
	for res := range resCh {
		pending[res.seq] = res
		for {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if r.err == nil && seen[r.batch.Name] {
				r.err = errRepeatedEntry(dbName, r.batch.Name)
			}
			if r.err != nil {
				failErr = r.err
				stop()
				break collect
			}
			seen[r.batch.Name] = true
			names = append(names, r.batch.Name)
			chunk = append(chunk, r.batch)
			if len(chunk) >= loadChunkSize {
				if err := flush(); err != nil {
					failErr = err
					stop()
					break collect
				}
			}
		}
	}
	if failErr != nil {
		// Join the pipeline before touching the catalog: closing abort
		// unblocks the producer and workers, and produce must finish
		// (releasing its source reader) before the caller returns.
		stop()
		for range resCh {
		}
		<-prodErr
	} else if perr := <-prodErr; perr != nil {
		failErr = perr
	} else {
		failErr = flush()
	}
	if open {
		failErr = errors.Join(failErr, e.db.Rollback())
	}
	// Rebuild the secondary indexes over whatever committed — the full
	// load on success, the consistent prefix on failure. ResumeIndexes
	// is a no-op when maintenance was inline (or a rollback already
	// restored it), and falls back to a catalog rollback on rebuild
	// errors. In tx mode maintenance was inline and ANALYZE would
	// commit mid-batch, so both steps move to the transaction's Commit.
	if txMode {
		e.txLoad.dbs[dbName] = true
	} else {
		if rerr := e.db.ResumeIndexes(); rerr != nil {
			failErr = errors.Join(failErr, rerr)
		}
		// Refresh optimizer statistics over whatever committed, riding the
		// same post-load collector slot as the index rebuild: the
		// cost-based planner's row counts and value distributions always
		// describe the current harvest. A stats failure does not
		// invalidate the loaded data, but it must surface.
		if aerr := e.store.AnalyzeStats(); aerr != nil {
			failErr = errors.Join(failErr, aerr)
		}
	}
	return names, tuples, failErr
}

// countingReader counts raw source bytes for throughput reporting. The
// count is read only after the transform goroutine has finished (the
// channel receive orders the accesses), so no atomics are needed.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
