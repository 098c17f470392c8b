package xomatiq_test

import (
	"strings"
	"testing"

	"xomatiq/internal/benchutil"
	"xomatiq/internal/bio"
	"xomatiq/internal/core"
	"xomatiq/internal/shred"
	"xomatiq/internal/sql"
)

// benchOpts seeds the synthetic corpora the root tests build.
var benchOpts = bio.GenOptions{Seed: 42, Cdc6Rate: 0.02, ECLinkRate: 0.3}

// dropShredIndexes drops the shredding schema's secondary indexes, so
// every query runs on sequential scans.
func dropShredIndexes(t *testing.T, db *sql.DB) {
	t.Helper()
	for _, ddl := range shred.IndexDDL {
		name := strings.Fields(ddl)[5] // CREATE INDEX IF NOT EXISTS <name> ON ...
		if _, err := db.Exec("DROP INDEX " + name); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuerySuiteWorkerDeterminism runs the E-series query suite with
// QueryWorkers=1 and QueryWorkers=4 and requires the full result sets
// to be byte-identical. Every suite query takes an index path when the
// indexes exist, so the no-index mode forces the queries through the
// sequential-scan path, where the parallel scan-filter operator must
// engage at workers=4.
func TestQuerySuiteWorkerDeterminism(t *testing.T) {
	f, err := benchutil.BuildFlats(120, 150, 150, benchOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, noIndexes := range []bool{false, true} {
		name := "indexed"
		if noIndexes {
			name = "no-indexes"
		}
		t.Run(name, func(t *testing.T) {
			open := func(workers int) *core.Engine {
				eng, err := benchutil.Warehouse(t.TempDir(), f, func(c *core.Config) {
					c.QueryWorkers = workers
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { eng.Close() })
				if noIndexes {
					dropShredIndexes(t, eng.DB())
				}
				return eng
			}
			serial, parallel := open(1), open(4)
			parallelScans := 0
			for _, q := range benchutil.QuerySuite {
				want := renderResult(t, serial, q.Query)
				got := renderResult(t, parallel, q.Query)
				if want != got {
					t.Errorf("%s: workers=4 diverges from workers=1\nserial:\n%s\nparallel:\n%s",
						q.Name, want, got)
				}
				if !noIndexes {
					continue
				}
				plan, err := parallel.Explain(q.Query)
				if err != nil {
					t.Fatal(err)
				}
				if strings.Contains(plan, "parallel scan") {
					parallelScans++
				}
			}
			if noIndexes && parallelScans == 0 {
				t.Error("no query of the suite ran a parallel scan at workers=4")
			}
		})
	}
}

func renderResult(t *testing.T, eng *core.Engine, query string) string {
	t.Helper()
	res, err := eng.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Columns, "|"))
	sb.WriteByte('\n')
	for _, row := range res.Rows {
		sb.WriteString(strings.Join(row, "|"))
		sb.WriteByte('\n')
	}
	return sb.String()
}
