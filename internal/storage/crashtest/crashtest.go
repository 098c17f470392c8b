// Package crashtest sweeps power-cut crash points through a storage
// workload and verifies that recovery restores a committed state.
//
// The harness runs a deterministic workload three ways over a seeded
// faultfs image:
//
//  1. a count run, fault-free, to learn how many disk operations the
//     workload performs;
//  2. a snapshot run that records a content fingerprint after setup and
//     after every step — the only states a crash is ever allowed to
//     recover to;
//  3. one crashed run per sampled crash point k: the identical workload
//     with the power cut at operation k, followed by a reboot, a
//     fault-free reopen and verification.
//
// Because the workload is deterministic and the crashed run sees no
// faults before the cut, its execution is byte-for-byte the count run's
// prefix, so "crash at op k" lands at the same logical place every time
// and the snapshot run's fingerprints are valid expectations.
//
// After each reopen the harness asserts the WAL-replay invariant of the
// engine's redo-only/no-steal design: with synchronous commits, the
// recovered content equals the fingerprint after the last step that
// returned success, or — when the in-flight commit record reached the
// log before the cut — the fingerprint one step later. Every step must
// therefore be a single atomic transaction (one auto-commit statement
// or one Begin/Commit batch). Structural consistency (catalog decodes,
// heaps decode, indexes complete) is the workload's job via Verify,
// typically sql.DB.CheckConsistency plus query-equivalence checks.
package crashtest

import (
	"fmt"

	"xomatiq/internal/faultfs"
	"xomatiq/internal/sql"
)

// Step is one atomic unit of workload: a single transaction.
type Step struct {
	Name string
	Run  func(db *sql.DB) error
}

// Workload describes what the sweep executes and how to judge recovery.
type Workload struct {
	// Setup creates the schema. It must be idempotent (IF NOT EXISTS):
	// a crash mid-setup recovers a partial schema and, on sweep points
	// before the first step, only Verify runs against it.
	Setup func(db *sql.DB) error
	// Steps are the atomic mutations, each one committed transaction.
	Steps []Step
	// Fingerprint reduces the database content the workload cares about
	// to a comparable string. It must be deterministic and read-only.
	Fingerprint func(db *sql.DB) (string, error)
	// Verify, if set, runs structural checks on every recovered
	// database (e.g. CheckConsistency) regardless of crash position.
	Verify func(db *sql.DB) error
}

// WithSnapshotReader threads an MVCC reader through every step of w:
// before the step mutates, a snapshot is pinned and read; after the
// step commits, the same pinned snapshot is read again and must return
// byte-identical content — the committed boundary the reader started
// on, never a torn epoch. Because the reads run synchronously inside
// each step they execute identically in the count run, the snapshot run
// and every crashed run, preserving the harness's determinism
// invariant; a crash point that lands inside a step therefore also
// lands while a reader holds an old snapshot, which is exactly the
// window this wrapper exists to sweep. read must be deterministic and
// read-only, resolving all page access through the given snapshot.
func WithSnapshotReader(w Workload, read func(db *sql.DB, s *sql.Snap) (string, error)) Workload {
	out := w
	out.Steps = make([]Step, len(w.Steps))
	for i, st := range w.Steps {
		st := st
		out.Steps[i] = Step{Name: st.Name, Run: func(db *sql.DB) error {
			snap := db.AcquireSnapshot()
			defer db.ReleaseSnapshot(snap)
			pinned, err := read(db, snap)
			if err != nil {
				return fmt.Errorf("snapshot read before %s: %w", st.Name, err)
			}
			if err := st.Run(db); err != nil {
				return err
			}
			after, err := read(db, snap)
			if err != nil {
				return fmt.Errorf("snapshot re-read after %s: %w", st.Name, err)
			}
			if after != pinned {
				return fmt.Errorf("snapshot reader across %s saw a torn epoch\n--- pinned ---\n%s--- after commit ---\n%s",
					st.Name, pinned, after)
			}
			return nil
		}}
	}
	return out
}

// Config tunes a sweep.
type Config struct {
	Seed int64
	// Path of the database inside the fault filesystem ("crash.db").
	Path string
	// Opts for sql.Open; FS is overwritten per run. Commits are forced
	// synchronous — the recovery invariant does not hold in async mode.
	Opts sql.Options
	// MaxPoints caps how many crash points are exercised, sampled evenly
	// across the workload's operation count. 0 sweeps every operation.
	MaxPoints int
}

// Result summarises a sweep.
type Result struct {
	TotalOps int64 // disk operations in the fault-free run
	Points   int   // crash points exercised
	// AtCommitted counts recoveries that landed on the last completed
	// step; InFlight counts those where the interrupted transaction
	// turned out durable; PreSetup counts crashes before setup finished
	// (fingerprints not applicable, Verify still runs).
	AtCommitted int
	InFlight    int
	PreSetup    int
}

func (r Result) String() string {
	return fmt.Sprintf("crashtest: %d ops, %d points (%d at-committed, %d in-flight, %d pre-setup)",
		r.TotalOps, r.Points, r.AtCommitted, r.InFlight, r.PreSetup)
}

// Sweep runs the workload's crash-point sweep and returns its summary,
// or an error naming the first failing crash point.
func Sweep(cfg Config, w Workload) (Result, error) {
	if cfg.Path == "" {
		cfg.Path = "crash.db"
	}
	total, err := countRun(cfg, w)
	if err != nil {
		return Result{}, fmt.Errorf("crashtest: fault-free run: %w", err)
	}
	snaps, err := snapshotRun(cfg, w)
	if err != nil {
		return Result{}, fmt.Errorf("crashtest: snapshot run: %w", err)
	}
	res := Result{TotalOps: total}
	for _, k := range samplePoints(total, cfg.MaxPoints) {
		if err := runPoint(cfg, w, snaps, k, &res); err != nil {
			return res, fmt.Errorf("crashtest: crash point %d of %d: %w", k, total, err)
		}
		res.Points++
	}
	return res, nil
}

// countRun executes the workload fault-free to learn its op count.
func countRun(cfg Config, w Workload) (int64, error) {
	fs := faultfs.New(cfg.Seed)
	db, err := openOn(cfg, fs)
	if err != nil {
		return 0, err
	}
	if w.Setup != nil {
		if err := w.Setup(db); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
	}
	for i, s := range w.Steps {
		if err := s.Run(db); err != nil {
			return 0, fmt.Errorf("step %d (%s): %w", i, s.Name, err)
		}
	}
	if err := db.Close(); err != nil {
		return 0, err
	}
	return fs.Ops(), nil
}

// snapshotRun records the expected fingerprint after setup (snaps[0])
// and after step i (snaps[i+1]). Its op stream diverges from the count
// run — fingerprint reads consume operations — which is why it is a
// separate run: crashed runs must mirror the count run exactly.
func snapshotRun(cfg Config, w Workload) ([]string, error) {
	db, err := openOn(cfg, faultfs.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if w.Setup != nil {
		if err := w.Setup(db); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	snaps := make([]string, 0, len(w.Steps)+1)
	fp, err := w.Fingerprint(db)
	if err != nil {
		return nil, fmt.Errorf("fingerprint after setup: %w", err)
	}
	snaps = append(snaps, fp)
	for i, s := range w.Steps {
		if err := s.Run(db); err != nil {
			return nil, fmt.Errorf("step %d (%s): %w", i, s.Name, err)
		}
		if fp, err = w.Fingerprint(db); err != nil {
			return nil, fmt.Errorf("fingerprint after step %d: %w", i, err)
		}
		snaps = append(snaps, fp)
	}
	return snaps, nil
}

// runPoint replays the workload with a power cut at op k, reboots and
// verifies the recovered database.
func runPoint(cfg Config, w Workload, snaps []string, k int64, res *Result) error {
	fs := faultfs.New(cfg.Seed)
	fs.CrashAt(k)
	// completed: -1 while setup is unfinished, then the number of steps
	// that returned success before the cut.
	completed := -1
	var firstErr error
	if db, err := openOn(cfg, fs); err != nil {
		firstErr = err
	} else {
		if w.Setup != nil {
			firstErr = w.Setup(db)
		}
		if firstErr == nil {
			completed = 0
			for _, s := range w.Steps {
				if firstErr = s.Run(db); firstErr != nil {
					break
				}
				completed++
			}
		}
		if completed == len(w.Steps) {
			// The cut lands in the final checkpoint; content is settled.
			_ = db.Close()
		}
		// Otherwise the handle is abandoned mid-crash, like the process
		// it simulates; all its state is in memory.
	}
	if !fs.Crashed() {
		// The cut never fired: either the workload stopped early for a
		// non-crash reason (impossible if it is deterministic, since the
		// fault-free run succeeded) or the point exceeds the op count.
		return fmt.Errorf("workload ended before the crash point fired (first error: %v)", firstErr)
	}

	re := fs.Reboot()
	db, err := openOn(cfg, re)
	if err != nil {
		return fmt.Errorf("reopen after %s: %w", fs.DescribeOp(k), err)
	}
	defer db.Close()
	if w.Verify != nil {
		if err := w.Verify(db); err != nil {
			return fmt.Errorf("verify after %s (completed %d steps): %w", fs.DescribeOp(k), completed, err)
		}
	}
	if completed < 0 {
		res.PreSetup++
		return nil
	}
	fp, err := w.Fingerprint(db)
	if err != nil {
		return fmt.Errorf("fingerprint after recovery: %w", err)
	}
	switch {
	case fp == snaps[completed]:
		res.AtCommitted++
	case completed+1 < len(snaps) && fp == snaps[completed+1]:
		res.InFlight++
	default:
		return fmt.Errorf("recovered content after %s matches neither step %d nor step %d state:\n%s",
			fs.DescribeOp(k), completed, completed+1, fp)
	}
	return nil
}

func openOn(cfg Config, fs *faultfs.FS) (*sql.DB, error) {
	opts := cfg.Opts
	opts.FS = fs
	return sql.Open(cfg.Path, opts)
}

// samplePoints picks up to max crash points evenly across the 0-based
// operation indexes [0, total-1].
func samplePoints(total int64, max int) []int64 {
	if total < 1 {
		return nil
	}
	if max <= 0 || int64(max) >= total {
		pts := make([]int64, 0, total)
		for k := int64(0); k < total; k++ {
			pts = append(pts, k)
		}
		return pts
	}
	if max == 1 {
		return []int64{total - 1}
	}
	pts := make([]int64, 0, max)
	for i := 0; i < max; i++ {
		// Spread points across the range, always including the last op.
		k := (total - 1) * int64(i) / int64(max-1)
		if len(pts) > 0 && pts[len(pts)-1] == k {
			continue
		}
		pts = append(pts, k)
	}
	return pts
}
