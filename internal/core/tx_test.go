package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"xomatiq/internal/bio"
	"xomatiq/internal/hounds"
)

// countQuery returns every entry id: one row per warehoused document.
const countQuery = `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
RETURN $a//enzyme_id`

// nativeAllQuery returns every entry id, like countQuery, through the
// native fallback: XQ2SQL does not translate NOT.
const nativeAllQuery = `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE NOT $a//enzyme_id = "none"
RETURN $a//enzyme_id`

// querier is the shared read surface of Session and Tx.
type querier interface {
	Query(context.Context, string) (*Result, error)
}

func txRows(t *testing.T, q querier, ctx context.Context, src string) int {
	t.Helper()
	res, err := q.Query(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Rows)
}

// nativeQuery runs nativeAllQuery and returns its row count, or an
// error if it fails or the native fallback did not answer it.
func nativeQuery(q querier, ctx context.Context) (int, error) {
	res, err := q.Query(ctx, nativeAllQuery)
	if err != nil {
		return 0, err
	}
	if res.Mode != ModeNative {
		return 0, fmt.Errorf("%q ran in mode %s, want %s", nativeAllQuery, res.Mode, ModeNative)
	}
	return len(res.Rows), nil
}

func nativeRows(t *testing.T, q querier, ctx context.Context) int {
	t.Helper()
	n, err := nativeQuery(q, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestTxSnapshotIsolation is the acceptance check: a transaction opened
// before a load never observes its rows, while a plain session sees
// them as soon as the load commits.
func TestTxSnapshotIsolation(t *testing.T) {
	e := openEngine(t)
	src := setupEnzyme(t, e, 20)
	ctx := context.Background()

	sess, err := e.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	tx, err := sess.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	before := txRows(t, tx, ctx, countQuery)
	if before != 21 {
		t.Fatalf("tx sees %d rows before update, want 21", before)
	}

	// A bigger harvest commits behind the transaction's back.
	bigger := bio.GenEnzymes(30, bio.GenOptions{Seed: 5})
	src.Publish(enzymeFlat(t, bigger))
	if _, err := e.Update("hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}

	plain, err := e.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if n := txRows(t, plain, ctx, countQuery); n != 31 {
		t.Fatalf("plain session sees %d rows after update, want 31", n)
	}
	// The transaction still reads its pinned epoch — repeatedly.
	for i := 0; i < 3; i++ {
		if n := txRows(t, tx, ctx, countQuery); n != 21 {
			t.Fatalf("tx read %d sees %d rows, want the pinned 21", i, n)
		}
	}
	// Session.Query joins the open transaction automatically.
	if n := txRows(t, sess, ctx, countQuery); n != 21 {
		t.Fatalf("session query inside tx sees %d rows, want 21", n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := txRows(t, sess, ctx, countQuery); n != 31 {
		t.Fatalf("session sees %d rows after commit, want 31", n)
	}
}

// TestTxWriteVisibility: a transaction's own load is visible to its own
// reads immediately, to nobody else until Commit, and its trigger fires
// only at Commit.
func TestTxWriteVisibility(t *testing.T) {
	e := openEngine(t)
	src := setupEnzyme(t, e, 10)
	ctx := context.Background()

	triggers := make(chan hounds.Trigger, 4)
	e.Bus().Subscribe(func(tr hounds.Trigger) { triggers <- tr })

	sess, err := e.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	plain, err := e.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	tx, err := sess.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	bigger := bio.GenEnzymes(25, bio.GenOptions{Seed: 5})
	src.Publish(enzymeFlat(t, bigger))
	if _, err := tx.Update(ctx, "hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	if n := txRows(t, tx, ctx, countQuery); n != 26 {
		t.Fatalf("tx sees %d of its own rows, want 26", n)
	}
	if n := txRows(t, plain, ctx, countQuery); n != 11 {
		t.Fatalf("plain session sees %d uncommitted rows, want the old 11", n)
	}
	select {
	case tr := <-triggers:
		t.Fatalf("trigger %+v fired before commit", tr)
	default:
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := txRows(t, plain, ctx, countQuery); n != 26 {
		t.Fatalf("plain session sees %d rows after commit, want 26", n)
	}
	select {
	case <-triggers:
	case <-time.After(5 * time.Second):
		t.Fatal("deferred trigger never fired after commit")
	}
}

// TestTxConflict covers both conflict shapes: losing the single-writer
// race, and escalating from a snapshot that predates another commit.
func TestTxConflict(t *testing.T) {
	e := openEngine(t)
	src := setupEnzyme(t, e, 10)
	ctx := context.Background()

	s1, _ := e.NewSession(ctx)
	defer s1.Close()
	s2, _ := e.NewSession(ctx)
	defer s2.Close()

	tx1, err := s1.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := s2.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	src.Publish(enzymeFlat(t, bio.GenEnzymes(12, bio.GenOptions{Seed: 5})))
	if _, err := tx1.Update(ctx, "hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	// tx1 holds the writer token: tx2's write loses the race.
	if _, err := tx2.Update(ctx, "hlx_enzyme.DEFAULT"); !errors.Is(err, ErrTxConflict) {
		t.Fatalf("tx2 write with token held = %v, want ErrTxConflict", err)
	}
	// tx2 stays open for reads after the conflict.
	if n := txRows(t, tx2, ctx, countQuery); n != 11 {
		t.Fatalf("tx2 sees %d rows after conflict, want 11", n)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	// The token is free now, but tx2's snapshot predates tx1's commit:
	// first committer wins.
	if _, err := tx2.Update(ctx, "hlx_enzyme.DEFAULT"); !errors.Is(err, ErrTxConflict) {
		t.Fatalf("tx2 write on stale snapshot = %v, want ErrTxConflict", err)
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
	// A fresh transaction writes fine.
	tx3, err := s2.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	src.Publish(enzymeFlat(t, bio.GenEnzymes(14, bio.GenOptions{Seed: 5})))
	if _, err := tx3.Update(ctx, "hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, _ := e.DocCount("hlx_enzyme.DEFAULT"); n != 15 {
		t.Fatalf("final DocCount = %d, want 15", n)
	}
}

// TestTxRollback: an escalated transaction's writes vanish on rollback,
// the store's dictionary with them, and autocommit loads still work
// afterwards (the writer token was released).
func TestTxRollback(t *testing.T) {
	e := openEngine(t)
	src := setupEnzyme(t, e, 10)
	ctx := context.Background()

	sess, _ := e.NewSession(ctx)
	defer sess.Close()
	tx, err := sess.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	src.Publish(enzymeFlat(t, bio.GenEnzymes(40, bio.GenOptions{Seed: 5})))
	if _, err := tx.Update(ctx, "hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n := txRows(t, sess, ctx, countQuery); n != 11 {
		t.Fatalf("post-rollback rows = %d, want 11", n)
	}
	if n, _ := e.DocCount("hlx_enzyme.DEFAULT"); n != 11 {
		t.Fatalf("post-rollback DocCount = %d, want 11", n)
	}
	// Operations on a finished transaction report ErrTxClosed.
	if _, err := tx.Query(ctx, countQuery); !errors.Is(err, ErrTxClosed) {
		t.Fatalf("query on closed tx = %v, want ErrTxClosed", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxClosed) {
		t.Fatalf("commit after rollback = %v, want ErrTxClosed", err)
	}
	// The store's dictionary reverted: a new autocommit load and a
	// follow-up query behave normally.
	if _, err := e.Update("hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	if n := txRows(t, sess, ctx, countQuery); n != 41 {
		t.Fatalf("post-reload rows = %d, want 41", n)
	}
}

// TestTxAdmissionAndOptions covers ErrTxActive, ReadOnly, MaxOpenTx and
// the session-close rollback path.
func TestTxAdmissionAndOptions(t *testing.T) {
	e := openEngineCfg(t, func(c *Config) { c.MaxOpenTx = 1 })
	src := setupEnzyme(t, e, 5)
	ctx := context.Background()

	sess, _ := e.NewSession(ctx)
	tx, err := sess.BeginTx(ctx, TxOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Begin(ctx); !errors.Is(err, ErrTxActive) {
		t.Fatalf("second Begin = %v, want ErrTxActive", err)
	}
	if _, err := tx.Update(ctx, "hlx_enzyme.DEFAULT"); !errors.Is(err, ErrTxReadOnly) {
		t.Fatalf("write in read-only tx = %v, want ErrTxReadOnly", err)
	}
	other, _ := e.NewSession(ctx)
	defer other.Close()
	if _, err := other.Begin(ctx); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Begin past MaxOpenTx = %v, want ErrOverloaded", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The gauge released: a new transaction fits again, escalates, and
	// Session.Close rolls it back — releasing the writer token, proven by
	// the autocommit harness afterwards not deadlocking.
	tx2, err := sess.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	src.Publish(enzymeFlat(t, bio.GenEnzymes(7, bio.GenOptions{Seed: 5})))
	if _, err := tx2.Update(ctx, "hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if !tx2.done.Load() {
		t.Fatal("Session.Close left the transaction open")
	}
	if _, err := e.Harness("hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	if n, _ := e.DocCount("hlx_enzyme.DEFAULT"); n != 8 {
		t.Fatalf("DocCount after close-rollback + harness = %d, want 8", n)
	}
}

// TestQueryDuringLoadConsistency is the MVCC tentpole check: concurrent
// scans during a continuous load loop always see a committed harvest
// boundary — one of the two published row counts, never a torn state —
// and loads never wait for readers. Run with -race.
func TestQueryDuringLoadConsistency(t *testing.T) {
	e, err := Open(NewConfig(filepath.Join(t.TempDir(), "wh.db")))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	src := setupEnzyme(t, e, 15)
	ctx := context.Background()

	v1 := enzymeFlat(t, bio.GenEnzymes(15, bio.GenOptions{Seed: 5}))
	v2 := enzymeFlat(t, bio.GenEnzymes(27, bio.GenOptions{Seed: 5}))
	// The keyword query's answer in each of the two harvests.
	keyword := map[int]bool{}
	for _, flat := range []string{v2, v1} {
		src.Publish(flat)
		if _, err := e.Update("hlx_enzyme.DEFAULT"); err != nil {
			t.Fatal(err)
		}
		keyword[txRows(t, e.defaultSess, ctx, ketoneQuery)] = true
	}

	const readers = 8
	const iters = 15
	var wg sync.WaitGroup
	errs := make(chan error, (readers+1)*iters+iters)
	counts := make(chan int, (readers+1)*iters)
	kwCounts := make(chan int, readers*iters)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := e.NewSession(ctx)
			if err != nil {
				errs <- err
				return
			}
			defer sess.Close()
			for i := 0; i < iters; i++ {
				q, out := countQuery, counts
				if i%2 == 1 {
					q, out = ketoneQuery, kwCounts
				}
				res, err := sess.Query(ctx, q)
				if err != nil {
					errs <- err
					return
				}
				out <- len(res.Rows)
			}
		}()
	}
	// One more reader runs the native fallback, which rebuilds the
	// documents of the snapshot its statement pinned.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess, err := e.NewSession(ctx)
		if err != nil {
			errs <- err
			return
		}
		defer sess.Close()
		for i := 0; i < iters; i++ {
			n, err := nativeQuery(sess, ctx)
			if err != nil {
				errs <- err
				return
			}
			counts <- n
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if i%2 == 0 {
				src.Publish(v2)
			} else {
				src.Publish(v1)
			}
			if _, err := e.Update("hlx_enzyme.DEFAULT"); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	close(counts)
	close(kwCounts)
	for err := range errs {
		t.Fatal(err)
	}
	for n := range counts {
		if n != 16 && n != 28 {
			t.Fatalf("reader saw %d rows mid-load; want a committed boundary (16 or 28)", n)
		}
	}
	for n := range kwCounts {
		if !keyword[n] {
			t.Fatalf("keyword reader saw %d rows mid-load; want a committed boundary (%v)", n, keyword)
		}
	}
}

// enzymeIDs lists the entry ids of a generated harvest.
func enzymeIDs(entries []*bio.EnzymeEntry) map[string]bool {
	ids := map[string]bool{}
	for _, en := range entries {
		ids[en.ID] = true
	}
	return ids
}

// TestTxReadersNeverSeeOpenBatch: while an escalated transaction holds an
// uncommitted update, every reader outside it — document counts, the
// metrics snapshot, plain sessions (translated, keyword and native
// queries), document reconstruction — reports the last commit, before
// and after a rollback; the new state appears at Commit and not before.
func TestTxReadersNeverSeeOpenBatch(t *testing.T) {
	e := openEngine(t)
	src := setupEnzyme(t, e, 10)
	ctx := context.Background()
	const dbName = "hlx_enzyme.DEFAULT"
	small := enzymeIDs(bio.GenEnzymes(10, bio.GenOptions{Seed: 5}))
	bigger := bio.GenEnzymes(25, bio.GenOptions{Seed: 5})
	var added string
	for _, en := range bigger {
		if !small[en.ID] {
			added = en.ID
			break
		}
	}
	if added == "" {
		t.Fatal("the bigger harvest adds no entry")
	}

	plain, err := e.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	keyword := map[int]int{} // keyword rows by document count
	check := func(stage string, want int) {
		t.Helper()
		if n := txRows(t, plain, ctx, ketoneQuery); n != keyword[want] {
			t.Errorf("%s: plain session's keyword query sees %d rows, want %d", stage, n, keyword[want])
		}
		if n, err := e.DocCount(dbName); err != nil || n != want {
			t.Errorf("%s: DocCount = %d, %v; want %d", stage, n, err, want)
		}
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for _, wh := range snap.Warehouses {
			if wh.DB == dbName && wh.Docs != want {
				t.Errorf("%s: Snapshot().Warehouses docs = %d, want %d", stage, wh.Docs, want)
			}
		}
		if n := txRows(t, plain, ctx, countQuery); n != want {
			t.Errorf("%s: plain session sees %d rows, want %d", stage, n, want)
		}
		if n := nativeRows(t, plain, ctx); n != want {
			t.Errorf("%s: plain session's native query sees %d rows, want %d", stage, n, want)
		}
		_, err = e.Document(dbName, added)
		if visible := err == nil; visible != (want == len(bigger)) {
			t.Errorf("%s: Document(%s) = %v, want visible=%v", stage, added, err, want == len(bigger))
		}
	}
	keyword[11] = txRows(t, plain, ctx, ketoneQuery)
	check("before", 11)

	sess, err := e.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	src.Publish(enzymeFlat(t, bigger))
	tx, err := sess.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Update(ctx, dbName); err != nil {
		t.Fatal(err)
	}
	check("open batch", 11)
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	check("after rollback", 11)

	tx, err = sess.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Update(ctx, dbName); err != nil {
		t.Fatal(err)
	}
	keyword[len(bigger)] = txRows(t, tx, ctx, ketoneQuery)
	check("open batch again", 11)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	check("after commit", len(bigger))
}

// TestTxNativeReadsItsSnapshot: the native fallback answers from the
// view its statement reads. A transaction pinned before a committed
// re-harness keeps answering from its snapshot, while a plain session
// sees the new harvest.
func TestTxNativeReadsItsSnapshot(t *testing.T) {
	e := openEngine(t)
	src := setupEnzyme(t, e, 10)
	ctx := context.Background()

	sess, err := e.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	tx, err := sess.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := nativeRows(t, tx, ctx); n != 11 {
		t.Fatalf("tx native query sees %d rows before the harness, want 11", n)
	}
	src.Publish(enzymeFlat(t, bio.GenEnzymes(3, bio.GenOptions{Seed: 5})))
	if _, err := e.Harness("hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	plain, err := e.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if n := nativeRows(t, plain, ctx); n != 4 {
		t.Errorf("plain session's native query sees %d rows after the harness, want 4", n)
	}
	if n := nativeRows(t, tx, ctx); n != 11 {
		t.Errorf("tx native query sees %d rows after the harness, want its snapshot's 11", n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := nativeRows(t, sess, ctx); n != 4 {
		t.Errorf("session's native query sees %d rows after commit, want 4", n)
	}
}

// TestTxWriterSeesOwnBatch: one transaction re-harnesses a database in a
// new entry order, then updates it twice (removals and modifications
// included). Its reads, and the committed count, show every entry
// exactly once — the updates delete by the ids the transaction's own
// harness assigned, not by the committed ones.
func TestTxWriterSeesOwnBatch(t *testing.T) {
	e := openEngine(t)
	src := setupEnzyme(t, e, 10)
	ctx := context.Background()
	const dbName = "hlx_enzyme.DEFAULT"

	entries := bio.GenEnzymes(15, bio.GenOptions{Seed: 5})
	reversed := make([]*bio.EnzymeEntry, len(entries))
	for i, en := range entries {
		reversed[len(entries)-1-i] = en
	}
	sess, err := e.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	tx, err := sess.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	expect := func(stage string, want []*bio.EnzymeEntry) {
		t.Helper()
		res, err := tx.Query(ctx, countQuery)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{}
		for _, r := range res.Rows {
			seen[r[0]]++
		}
		for _, en := range want {
			if seen[en.ID] != 1 {
				t.Errorf("%s: entry %s read %d times, want once", stage, en.ID, seen[en.ID])
			}
		}
		if len(res.Rows) != len(want) {
			t.Errorf("%s: tx reads %d rows, want %d", stage, len(res.Rows), len(want))
		}
	}

	src.Publish(enzymeFlat(t, reversed))
	if _, err := tx.Harness(ctx, dbName); err != nil {
		t.Fatal(err)
	}
	expect("harness", reversed)

	// Remove one entry, modify one, add one.
	first := append([]*bio.EnzymeEntry{}, reversed[:3]...)
	first = append(first, reversed[4:]...)
	changed := *first[5]
	changed.Comments = append([]string{"Updated curator note."}, changed.Comments...)
	first[5] = &changed
	first = append(first, &bio.EnzymeEntry{ID: "7.7.7.7", Description: []string{"Brand new enzyme."}})
	src.Publish(enzymeFlat(t, first))
	if cs, err := tx.Update(ctx, dbName); err != nil || len(cs.Removed) != 1 || len(cs.Modified) != 1 {
		t.Fatalf("first update = %+v, %v", cs, err)
	}
	expect("first update", first)

	// Modify two more, one of them the entry added above.
	second := append([]*bio.EnzymeEntry{}, first...)
	for _, i := range []int{1, len(second) - 1} {
		en := *second[i]
		en.Comments = append([]string{"Second curator note."}, en.Comments...)
		second[i] = &en
	}
	src.Publish(enzymeFlat(t, second))
	if cs, err := tx.Update(ctx, dbName); err != nil || len(cs.Modified) != 2 {
		t.Fatalf("second update = %+v, %v", cs, err)
	}
	expect("second update", second)

	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, err := e.DocCount(dbName); err != nil || n != len(second) {
		t.Fatalf("DocCount after commit = %d, %v; want %d", n, err, len(second))
	}
	if n := txRows(t, sess, ctx, countQuery); n != len(second) {
		t.Fatalf("session reads %d rows after commit, want %d", n, len(second))
	}
}

// TestTxSessionExplainAnalyzeJoinsTx: EXPLAIN ANALYZE on a session with
// an open transaction runs inside it, exactly as Session.Query does.
func TestTxSessionExplainAnalyzeJoinsTx(t *testing.T) {
	e := openEngine(t)
	src := setupEnzyme(t, e, 10)
	ctx := context.Background()
	const dbName = "hlx_enzyme.DEFAULT"

	sess, err := e.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	tx, err := sess.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	src.Publish(enzymeFlat(t, bio.GenEnzymes(15, bio.GenOptions{Seed: 5})))
	if _, err := tx.Harness(ctx, dbName); err != nil {
		t.Fatal(err)
	}
	src.Publish(enzymeFlat(t, bio.GenEnzymes(20, bio.GenOptions{Seed: 5})))
	if _, err := tx.Update(ctx, dbName); err != nil {
		t.Fatal(err)
	}
	n := txRows(t, tx, ctx, countQuery)
	if n != 21 {
		t.Fatalf("tx reads %d rows, want 21", n)
	}
	report, err := sess.ExplainAnalyze(ctx, countQuery)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("total: %d rows", n); !strings.Contains(report, want) {
		t.Fatalf("session EXPLAIN ANALYZE inside the tx lacks %q:\n%s", want, report)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	report, err = sess.ExplainAnalyze(ctx, countQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "total: 11 rows") {
		t.Fatalf("session EXPLAIN ANALYZE after rollback:\n%s", report)
	}
}

// TestTxSessionExplainReadsPinnedSnapshot: Session.Explain inside an
// open transaction plans against the transaction's pinned snapshot, so a
// load committed by another session after Begin changes neither its
// estimates nor the plan the transaction's query runs.
func TestTxSessionExplainReadsPinnedSnapshot(t *testing.T) {
	e := openEngine(t)
	src := setupEnzyme(t, e, 10)
	ctx := context.Background()
	sess, err := e.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	tx, err := sess.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	atBegin, err := sess.Explain(countQuery)
	if err != nil {
		t.Fatal(err)
	}
	src.Publish(enzymeFlat(t, bio.GenEnzymes(200, bio.GenOptions{Seed: 5})))
	if _, err := e.Harness("hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	inTx, err := sess.Explain(countQuery)
	if err != nil {
		t.Fatal(err)
	}
	if inTx != atBegin {
		t.Errorf("plan inside the tx moved with another session's load:\n%s\nat Begin:\n%s", inTx, atBegin)
	}
	report, err := sess.ExplainAnalyze(ctx, countQuery)
	if err != nil {
		t.Fatal(err)
	}
	planLinesRun(t, inTx, report)
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	after, err := sess.Explain(countQuery)
	if err != nil {
		t.Fatal(err)
	}
	if after == atBegin {
		t.Errorf("plan after the tx does not see the committed load:\n%s", after)
	}
}

// TestTxPinnedKeywordSnapshot: a transaction pinned before a committed
// re-harness answers a keyword query from its snapshot's keyword index,
// not from the new harvest's, whose doc ids name other documents in the
// pinned snapshot.
func TestTxPinnedKeywordSnapshot(t *testing.T) {
	e := openEngine(t)
	src := setupEnzyme(t, e, 40)
	ctx := context.Background()

	sess, err := e.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	tx, err := sess.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if n := txRows(t, tx, ctx, ketoneQuery); n != 11 {
		t.Fatalf("tx reads %d rows before the re-harness, want 11", n)
	}
	src.Publish(enzymeFlat(t, bio.GenEnzymes(40, bio.GenOptions{Seed: 9})))
	if _, err := e.Harness("hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	if n := txRows(t, tx, ctx, ketoneQuery); n != 11 {
		t.Errorf("tx pinned before the re-harness reads %d rows, want its snapshot's 11", n)
	}
	plain, err := e.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if n := txRows(t, plain, ctx, ketoneQuery); n != 10 {
		t.Errorf("a new session reads %d rows after the re-harness, want 10", n)
	}
}

// TestTxOpenBatchKeywordSnapshot: a plain session beside an escalated
// transaction whose re-harness has not committed answers a keyword
// query from the last commit; the transaction reads its own harvest.
func TestTxOpenBatchKeywordSnapshot(t *testing.T) {
	e := openEngine(t)
	src := setupEnzyme(t, e, 40)
	ctx := context.Background()

	plain, err := e.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	sess, err := e.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	tx, err := sess.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	src.Publish(enzymeFlat(t, bio.GenEnzymes(40, bio.GenOptions{Seed: 9})))
	if _, err := tx.Harness(ctx, "hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	if n := txRows(t, plain, ctx, ketoneQuery); n != 11 {
		t.Errorf("plain session beside the open re-harness reads %d rows, want the committed 11", n)
	}
	if n := txRows(t, tx, ctx, ketoneQuery); n != 10 {
		t.Errorf("tx reads %d rows of its own re-harness, want 10", n)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n := txRows(t, plain, ctx, ketoneQuery); n != 11 {
		t.Errorf("plain session reads %d rows after the rollback, want 11", n)
	}
}

// TestTxPinnedAcrossNewPaths: a transaction pinned before a load that
// brings paths the warehouse has never seen resolves paths against its
// snapshot's dictionary, and a new session against the new one.
func TestTxPinnedAcrossNewPaths(t *testing.T) {
	e := openEngine(t)
	entries := bio.GenEnzymes(5, bio.GenOptions{Seed: 5})
	for _, en := range entries {
		en.PrositeRefs = nil
	}
	src := hounds.NewSimSource("expasy-enzyme", enzymeFlat(t, entries))
	if err := e.RegisterSource("hlx_enzyme.DEFAULT", src, hounds.EnzymeTransformer{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Harness("hlx_enzyme.DEFAULT"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const q = `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//prosite_reference, "PDOC00080")
RETURN $a//enzyme_id`
	sess, err := e.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	tx, err := sess.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if n := txRows(t, tx, ctx, q); n != 0 {
		t.Fatalf("tx reads %d rows before the load, want 0", n)
	}
	revised := *entries[2]
	revised.PrositeRefs = []string{"PDOC00080"}
	entries[2] = &revised
	src.Publish(enzymeFlat(t, entries))
	if cs, err := e.Update("hlx_enzyme.DEFAULT"); err != nil || len(cs.Modified) != 1 {
		t.Fatalf("update = %+v, %v; want one modified entry", cs, err)
	}
	if n := txRows(t, tx, ctx, countQuery); n != len(entries) {
		t.Errorf("tx pinned before the load reads %d entries, want %d", n, len(entries))
	}
	if n := txRows(t, tx, ctx, q); n != 0 {
		t.Errorf("tx pinned before the load reads %d rows, want 0", n)
	}
	plain, err := e.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if n := txRows(t, plain, ctx, q); n != 1 {
		t.Errorf("a new session reads %d rows after the load, want 1", n)
	}
}
