package sql

import (
	"fmt"
	"path/filepath"
	"testing"
)

// TestRecoveryAfterCrash loads data, crashes without flushing the buffer
// pool, reopens and verifies every committed row (and no uncommitted one)
// is present, with indexes consistent.
func TestRecoveryAfterCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.db")
	db, err := Open(path, Options{PoolPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (a INT, b TEXT)`)
	mustExec(t, db, `CREATE INDEX idx_a ON t (a)`)
	for i := 0; i < 200; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'row-%d')`, i, i))
	}
	// An uncommitted batch: its rows must vanish at recovery.
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 1000; i < 1100; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'phantom-%d')`, i, i))
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, Options{PoolPages: 512})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer db2.Close()
	if !db2.Recovered() {
		t.Error("Recovered() should be true after crash")
	}
	r := mustQuery(t, db2, `SELECT COUNT(*) FROM t`)
	if rowStrings(r)[0] != "200" {
		t.Errorf("recovered row count = %v, want 200", rowStrings(r))
	}
	r = mustQuery(t, db2, `SELECT COUNT(*) FROM t WHERE a >= 1000`)
	if rowStrings(r)[0] != "0" {
		t.Errorf("uncommitted rows survived: %v", rowStrings(r))
	}
	// Index rebuilt and usable.
	r = mustQuery(t, db2, `SELECT b FROM t WHERE a = 137`)
	if len(r.Rows) != 1 || rowStrings(r)[0] != "row-137" {
		t.Errorf("index after recovery = %v", rowStrings(r))
	}
	// The recovered database continues to work.
	mustExec(t, db2, `INSERT INTO t VALUES (9999, 'after-recovery')`)
	r = mustQuery(t, db2, `SELECT b FROM t WHERE a = 9999`)
	if len(r.Rows) != 1 {
		t.Error("insert after recovery failed")
	}
}

// TestRecoveryBatchCommitted verifies a committed batch fully survives a
// crash.
func TestRecoveryBatchCommitted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.db")
	db, err := Open(path, Options{PoolPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (a INT)`)
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path, Options{PoolPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	r := mustQuery(t, db2, `SELECT COUNT(*), MIN(a), MAX(a) FROM t`)
	if rowStrings(r)[0] != "500|0|499" {
		t.Errorf("batch after crash = %v", rowStrings(r))
	}
}

// TestRecoveryDeletesAndUpdates crashes after mixed DML and verifies the
// replayed state matches.
func TestRecoveryDeletesAndUpdates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dml.db")
	db, err := Open(path, Options{PoolPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (a INT, b TEXT)`)
	for i := 0; i < 100; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'v')`, i))
	}
	mustExec(t, db, `DELETE FROM t WHERE a < 50`)
	// An update, the way the warehouse issues one: DELETE, then INSERT
	// the same keys with the new value.
	mustExec(t, db, `DELETE FROM t WHERE a >= 90`)
	for i := 90; i < 100; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'updated')`, i))
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path, Options{PoolPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	r := mustQuery(t, db2, `SELECT COUNT(*) FROM t`)
	if rowStrings(r)[0] != "50" {
		t.Errorf("count after recovery = %v", rowStrings(r))
	}
	r = mustQuery(t, db2, `SELECT COUNT(*) FROM t WHERE b = 'updated'`)
	if rowStrings(r)[0] != "10" {
		t.Errorf("updates after recovery = %v", rowStrings(r))
	}
}

// TestCheckpointThenCrash verifies that work before a checkpoint is
// durable even though the WAL was truncated.
func TestCheckpointThenCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.db")
	db, err := Open(path, Options{PoolPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (a INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (2), (3)`)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `INSERT INTO t VALUES (4)`)
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path, Options{PoolPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	r := mustQuery(t, db2, `SELECT COUNT(*) FROM t`)
	if rowStrings(r)[0] != "4" {
		t.Errorf("rows after checkpoint+crash = %v", rowStrings(r))
	}
}
