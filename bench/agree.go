package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// exactCounters are the per-layer counts that must repeat exactly
// between two traced passes of the same code on the same seed: they are
// taken with one client and no timers. The two allocation counts repeat
// to about one part in a million (the runtime's own bookkeeping moves
// them), so they are held to allocTolerance instead.
var exactCounters = []string{
	"wal.appends_per_load", "wal.bytes_per_load", "wal.fsyncs_per_load", "core.chunks_per_load",
	"shred.tuples_per_doc", "disk.file_pages", "bufpool.misses_per_load", "bufpool.evictions_per_load",
	"btree.searches_per_op", "heap.pages_scanned_per_op", "bufpool.hits_per_op", "bufpool.misses_per_op",
	"bufpool.evictions_per_op", "bufpool.hit_ratio", "sql.join_spill_bytes_per_op", "sql.rows_examined_per_row",
	"core.plancache_hit_ratio", "core.native_fallback_ratio", "core.plancache_invalidations_per_cycle",
	"core.result_json_bytes", "btree.pages_per_get",
}

var nearExactCounters = []string{"go.allocs_per_op", "go.alloc_bytes_per_op"}

const allocTolerance = 0.001

// benchmarkFile is the part of BENCHMARK.json that -agree and the tests
// read.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// runAgree runs both passes of every workload twice on the same code and
// seed and prints, per metric and workload, both values, their relative
// difference and the bound. It fails if an end-to-end difference exceeds
// its bound, an exact counter differs, or an answer was wrong.
func runAgree(opt options) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-agree runs from the repository root: %w", err)
	}
	bad := 0
	for _, w := range workloads {
		var sets [2]struct{ untraced, traced *report }
		for i := range sets {
			dir := filepath.Join(opt.outDir, fmt.Sprintf("agree-%d", i+1))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			if sets[i].untraced, err = child(w, opt, false, dir); err != nil {
				return err
			}
			if sets[i].traced, err = child(w, opt, true, dir); err != nil {
				return err
			}
			for _, rep := range []*report{sets[i].untraced, sets[i].traced} {
				if !rep.Correct {
					fmt.Printf("%-22s set %d: %d of %d operations failed: %v\n", w.name, i+1, rep.Failed, rep.Attempted, rep.Reasons)
					bad++
				}
			}
		}
		fmt.Printf("\n%s\n  %-34s %14s %14s %8s %6s\n", w.name, "metric", "first", "second", "diff", "bound")
		line := func(name string, a, b, bound float64) {
			verdict := ""
			if d := relDiff(a, b); d > bound {
				verdict = "  DISAGREE"
				bad++
			}
			fmt.Printf("  %-34s %14.4f %14.4f %7.2f%% %5.1f%%%s\n", name, a, b, 100*relDiff(a, b), 100*bound, verdict)
		}
		for _, m := range bf.EndToEnd {
			line(m.Name, sets[0].untraced.Metrics[m.Name].Value, sets[1].untraced.Metrics[m.Name].Value, m.Bound)
		}
		for _, name := range exactCounters {
			line(name, sets[0].traced.Metrics[name].Value, sets[1].traced.Metrics[name].Value, 0)
		}
		for _, name := range nearExactCounters {
			line(name, sets[0].traced.Metrics[name].Value, sets[1].traced.Metrics[name].Value, allocTolerance)
		}
		// The rest of the traced pass is timing; it carries no bound.
		var rest []string
		for name := range sets[0].traced.Metrics {
			rest = append(rest, name)
		}
		sort.Strings(rest)
		fmt.Printf("  per-layer timings (no bound):\n")
		for _, name := range rest {
			a, b := sets[0].traced.Metrics[name], sets[1].traced.Metrics[name]
			if a.Unit == "count" || a.Unit == "bytes" || a.Unit == "pages" || (a.Unit == "ratio" && a.Value == b.Value) {
				continue
			}
			fmt.Printf("  %-34s %14.4f %14.4f %7.2f%%\n", name, a.Value, b.Value, 100*relDiff(a.Value, b.Value))
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d disagreements: lengthen the window, or widen that metric's bound in BENCHMARK.json and record the spread in bench/README.md", bad)
	}
	fmt.Println("\nthe two sets agree within every bound, and the exact counters repeat exactly")
	return nil
}
