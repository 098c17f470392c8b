package xomatiq_test

import (
	"regexp"
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
// to be byte-identical: the workers build a partitioned hash join's
// tables, and which goroutine builds a partition must not show in the
// answer. Every suite query takes an index path when the indexes
// exist, so the no-index modes force the queries through sequential
// scans and hash joins. At this corpus size every join builds one
// partition, which no worker splits; the budgeted mode's 4 KiB memory
// budget plans more partitions, spills some of them and builds the
// rest on the workers.
func TestQuerySuiteWorkerDeterminism(t *testing.T) {
	f, err := benchutil.BuildFlats(120, 150, 150, benchOpts)
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name      string
		noIndexes bool
		budget    int64
	}{
		{"indexed", false, 0},
		{"no-indexes", true, 0},
		{"no-indexes-budgeted", true, 4 << 10},
	}
	multiPart := regexp.MustCompile(`partitioned hash join \(\d+ keys, partitions=([2-9]|\d\d)\)`)
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			open := func(workers int) *core.Engine {
				eng, err := benchutil.Warehouse(t.TempDir(), f, func(c *core.Config) {
					c.QueryWorkers = workers
					c.QueryMemBudget = m.budget
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { eng.Close() })
				if m.noIndexes {
					dropShredIndexes(t, eng.DB())
				}
				return eng
			}
			serial, workers4 := open(1), open(4)
			split := 0
			for _, q := range benchutil.QuerySuite {
				want := renderResult(t, serial, q.Query)
				got := renderResult(t, workers4, q.Query)
				if want != got {
					t.Errorf("%s: workers=4 diverges from workers=1\nworkers=1:\n%s\nworkers=4:\n%s",
						q.Name, want, got)
				}
				plan, err := workers4.Explain(q.Query)
				if err != nil {
					t.Fatal(err)
				}
				if multiPart.MatchString(plan) {
					split++
				}
			}
			if m.budget > 0 && split == 0 {
				t.Error("no suite query built a hash join of more than one partition")
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
