package main

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// small shrinks a workload so that a whole run takes about a second.
func small(w *workload) *workload {
	s := *w
	s.size = sizes{Enzyme: 50}
	if w.size.EMBL > 0 {
		s.size.EMBL, s.size.SProt = 30, 30
	}
	s.tracedLoads = 1
	if s.updates > 2 {
		s.updates = 2
	}
	return &s
}

// TestSmoke runs every workload's untraced pass on a tiny corpus with
// the oracle on: no operation may fail and every end-to-end metric must
// come out positive. One traced pass (the workload that loads, reads and
// updates) checks that every per-layer metric BENCHMARK.json lists is
// reported, and that the staged load writes what the whole one writes.
func TestSmoke(t *testing.T) {
	opt := options{seed: 42, seconds: 1, setups: 1, outDir: t.TempDir()}
	for _, w := range workloads {
		rep, err := runWorkload(small(w), opt, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Correct {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, rep.Failed, rep.Attempted, rep.Reasons)
		}
		for name, unit := range endToEndUnits {
			if m, ok := rep.Metrics[name]; !ok || m.Unit != unit || !(m.Value > 0) {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w.name, name, m, unit)
			}
		}
		if len(rep.Metrics) != len(endToEndUnits) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.name, len(rep.Metrics), len(endToEndUnits))
		}
	}
	if testing.Short() {
		return // the probes of a traced pass take a few seconds
	}
	w := findWorkload("query-during-update")
	rep, err := runWorkload(small(w), opt, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Errorf("traced: %d of %d operations failed: %v", rep.Failed, rep.Attempted, rep.Reasons)
	}
	bf := benchmarkFileForTest(t)
	var listed, reported []string
	for _, m := range bf.PerLayer {
		listed = append(listed, m.Name)
		if got := rep.Metrics[m.Name]; got.Unit != m.Unit {
			t.Errorf("%s: reported in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	for name := range rep.Metrics {
		reported = append(reported, name)
	}
	sort.Strings(listed)
	sort.Strings(reported)
	if len(listed) != len(reported) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the traced pass reports %d", len(listed), len(reported))
	}
	for i := range listed {
		if i < len(reported) && listed[i] != reported[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s, the traced pass %s", i, listed[i], reported[i])
			break
		}
	}
	if r := rep.Metrics["trace.ingest_stage_sum_ratio"].Value; r < 0.5 || r > 1.5 {
		t.Errorf("staged load accounts for %.2f of the whole one", r)
	}
	if _, err := os.Stat(filepath.Join(opt.outDir, "trace-"+w.name+".jsonl")); err != nil {
		t.Errorf("no trace file: %v", err)
	}
	left, _ := filepath.Glob(filepath.Join(opt.outDir, "scratch-*"))
	if len(left) > 0 {
		t.Errorf("scratch warehouses left behind: %v", left)
	}
}

func benchmarkFileForTest(t *testing.T) benchmarkFile {
	t.Helper()
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesDriver keeps BENCHMARK.json and the driver
// from drifting apart: same workloads with the same reasons, same
// end-to-end metrics and units, and every exact counter a listed metric.
func TestBenchmarkFileMatchesDriver(t *testing.T) {
	bf := benchmarkFileForTest(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the driver %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the driver %d", len(bf.EndToEnd), len(endToEndUnits))
	}
	for _, m := range bf.EndToEnd {
		if unit, ok := endToEndUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s) is not what the driver reports (%q)", m.Name, m.Unit, unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	listed := map[string]bool{}
	for _, m := range bf.PerLayer {
		listed[m.Name] = true
	}
	for _, name := range append(append([]string{}, exactCounters...), nearExactCounters...) {
		if !listed[name] {
			t.Errorf("exact counter %s is not a per-layer metric", name)
		}
	}
}
