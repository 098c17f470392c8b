package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported number. Samples is how many measurements the
// value summarises; Note says what a data-dependent value stands for
// (which percentile the tail is).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// endToEndUnits names every end-to-end metric with its unit, exactly as
// BENCHMARK.json lists them; every workload reports every one.
var endToEndUnits = map[string]string{
	"setup_s":                 "s",
	"query_p50_ms":            "ms",
	"query_tail_ms":           "ms",
	"query_per_s":             "1/s",
	"write_docs_per_s":        "1/s",
	"reopen_first_query_ms":   "ms",
	"wal_bytes_per_src_byte":  "ratio",
	"file_bytes_per_src_byte": "ratio",
	"peak_rss_mb":             "MB",
}

// provenance records what produced a report.
type provenance struct {
	Commit      string  `json:"git_commit"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"nproc"`
	CPUModel    string  `json:"cpu_model"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"window_seconds"`
	Setups      int     `json:"setups_per_run"`
	FlushPolicy string  `json:"flush_policy"`
	PoolPages   int     `json:"pool_pages"`
}

// report is everything one run of one workload has to say.
type report struct {
	Workload   string            `json:"workload"`
	Why        string            `json:"why"`
	Traced     bool              `json:"traced"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Reasons    []string          `json:"failure_reasons,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	Detail     map[string]metric `json:"detail,omitempty"`
	Provenance provenance        `json:"provenance"`
}

const pageBytes = 8192

// endToEnd turns what the untraced pass measured into the end-to-end
// metrics, plus per-workload detail that has no slot in the contract
// (per-figure medians, load and update rates apart).
func (r *run) endToEnd() (metrics, detail map[string]metric) {
	ms := func(v float64, n int) metric { return metric{Value: v, Unit: "ms", Samples: n} }
	plain := func(v float64, n int) metric { return metric{Value: v, Samples: n} }
	all := r.lat.all()
	tailMs, pct := tail(all)

	// Entries made durable per second of writer time. The read-only
	// workloads write only when set-up loads their corpus.
	docs, secs := r.loadDocs+r.updDocs, r.loadSecs+r.updSecs
	writes := r.iterations
	if secs == 0 {
		for _, ls := range r.loads {
			docs += float64(ls.docs)
			secs += ls.loadSecs
		}
		writes = len(r.loads)
	}
	var reopen, walAmp, fileAmp []float64
	for _, ls := range r.loads {
		reopen = append(reopen, ls.reopenMs)
		walAmp = append(walAmp, ls.walBytes/ls.srcBytes)
		fileAmp = append(fileAmp, ls.filePages*pageBytes/ls.srcBytes)
	}
	// A slow spell on a shared machine drags a mean down; with several
	// slices, take the middle one's rate.
	rate := ratio(float64(len(all)), r.readSecs)
	if len(r.sliceRate) > 0 {
		rate = median(r.sliceRate)
	}
	metrics = map[string]metric{
		"setup_s":                 plain(median(r.setupSecs), len(r.setupSecs)),
		"query_p50_ms":            plain(median(all), len(all)),
		"query_tail_ms":           {Value: tailMs, Samples: len(all), Note: fmt.Sprintf("p%.1f", pct)},
		"query_per_s":             plain(rate, len(all)),
		"write_docs_per_s":        plain(ratio(docs, secs), writes),
		"reopen_first_query_ms":   plain(median(reopen), len(reopen)),
		"wal_bytes_per_src_byte":  plain(median(walAmp), len(walAmp)),
		"file_bytes_per_src_byte": plain(median(fileAmp), len(fileAmp)),
		"peak_rss_mb":             plain(peakRSSMB(), 1),
	}
	for name, m := range metrics {
		m.Unit = endToEndUnits[name]
		metrics[name] = m
	}
	detail = map[string]metric{}
	for kind, xs := range r.lat {
		detail[kind+"_p50_ms"] = ms(median(xs), len(xs))
	}
	if r.loadSecs > 0 {
		detail["load_docs_per_s"] = metric{Value: r.loadDocs / r.loadSecs, Unit: "1/s", Samples: r.iterations}
	}
	if r.updSecs > 0 {
		detail["update_docs_per_s"] = metric{Value: r.updDocs / r.updSecs, Unit: "1/s"}
	}
	if n := r.planHits + r.planMisses; n > 0 {
		detail["plancache_hit_ratio"] = metric{Value: float64(r.planHits) / float64(n), Unit: "ratio", Samples: int(n)}
	}
	for i, p50 := range r.sliceP50 {
		detail[fmt.Sprintf("slice%d_query_p50_ms", i+1)] = ms(p50, 0)
	}
	if r.ev != nil && r.evolving {
		detail["reads_in_update_gap"] = metric{Value: float64(r.ev.gapReads.Load()), Unit: "count"}
	}
	if r.iterations > 0 {
		detail["iterations"] = metric{Value: float64(r.iterations), Unit: "count"}
	}
	return metrics, detail
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func newProvenance(opt options) provenance {
	p := provenance{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPUModel: "unknown", Seed: opt.seed, Seconds: opt.seconds,
		Setups: opt.setups, FlushPolicy: "sync: WAL fsync on every commit", PoolPages: 4096,
	}
	// A driver's checkout is not a git repository; a developer's is.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

// result is the one line the contract wants last on standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (rep *report) result() result {
	out := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]valueUnit{}}
	for name, m := range rep.Metrics {
		out.Metrics[name] = valueUnit{m.Value, m.Unit}
	}
	return out
}

// table prints the report for a person.
func (rep *report) table(w io.Writer) {
	pass := "untraced"
	if rep.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "\n%s (%s pass): %d attempted, %d failed\n", rep.Workload, pass, rep.Attempted, rep.Failed)
	for _, reason := range rep.Reasons {
		fmt.Fprintf(w, "  FAILED: %s\n", reason)
	}
	for _, group := range []map[string]metric{rep.Metrics, rep.Detail} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := group[n]
			fmt.Fprintf(w, "  %-40s %14.4f %-6s", n, m.Value, m.Unit)
			if m.Samples > 0 {
				fmt.Fprintf(w, " n=%d", m.Samples)
			}
			if m.Note != "" {
				fmt.Fprintf(w, " (%s)", m.Note)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}

func reportPath(dir, workload string, traced bool) string {
	if traced {
		return filepath.Join(dir, "report-"+workload+"-traced.json")
	}
	return filepath.Join(dir, "report-"+workload+".json")
}

// save writes the full report beside the traces.
func (rep *report) save(dir string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(reportPath(dir, rep.Workload, rep.Traced), append(data, '\n'), 0o644)
}
