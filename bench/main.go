// Command xqledger is the repository's performance ledger: four
// workloads from HTTP request to page, measured end to end and, in a
// separate traced pass, layer by layer. See README.md beside this file.
//
//	bash bench/run.sh --workload point-lookup --seed 42 --seconds 15 --trace 0
//	bash bench/run.sh                 # every workload, both passes, one JSON document
//	bash bench/run.sh --agree         # two sets of runs of the same code, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
)

func main() {
	var (
		opt      options
		workload = flag.String("workload", "", "workload to run in this process (default: all four, each in a child process)")
		trace    = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		agree    = flag.Bool("agree", false, "run everything twice and compare the two sets against the bounds in BENCHMARK.json")
	)
	flag.Int64Var(&opt.seed, "seed", 42, "seed of the generated corpus and traffic")
	flag.Float64Var(&opt.seconds, "seconds", 15, "length of the measured window")
	flag.StringVar(&opt.outDir, "out", "bench/out", "directory for reports, traces and scratch warehouses")
	flag.Parse()
	opt.setups = 3
	if flag.NArg() > 0 || opt.seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		fatal(err)
	}
	var err error
	switch {
	case *agree:
		err = runAgree(opt)
	case *workload == "":
		err = runAll(opt)
	default:
		w := findWorkload(*workload)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		err = runOne(w, opt, *trace == 1)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xqledger:", err)
	os.Exit(1)
}

// runOne runs one pass of one workload in this process and prints the
// contract's result line. A wrong answer is reported in the line, not by
// the exit code; only a run that could not be carried out is an error.
func runOne(w *workload, opt options, traced bool) error {
	rep, err := runWorkload(w, opt, traced)
	if err != nil {
		return err
	}
	if err := rep.save(opt.outDir); err != nil {
		return err
	}
	rep.table(os.Stderr)
	return json.NewEncoder(os.Stdout).Encode(rep.result())
}

// runWorkload carries out one pass and assembles its report.
func runWorkload(w *workload, opt options, traced bool) (*report, error) {
	r, err := newRun(w, opt)
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: w.name, Why: w.why, Traced: traced, Provenance: newProvenance(opt)}
	if traced {
		if rep.Metrics, rep.Detail, err = r.trace(); err != nil {
			return nil, err
		}
	} else {
		if err := r.measure(); err != nil {
			return nil, err
		}
		rep.Metrics, rep.Detail = r.endToEnd()
	}
	rep.Attempted, rep.Failed, rep.Reasons = r.t.attempted, r.t.failed, r.t.reasons
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep, nil
}

// child runs one pass of one workload in a process of its own, so that
// peak_rss_mb is that workload's alone, and reads back its full report.
func child(w *workload, opt options, traced bool, outDir string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", w.name, "--trace", trace, "--out", outDir,
		"--seed", fmt.Sprint(opt.seed), "--seconds", fmt.Sprint(opt.seconds))
	cmd.Stderr = os.Stderr
	if _, err := cmd.Output(); err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", w.name, trace, err)
	}
	data, err := os.ReadFile(reportPath(outDir, w.name, traced))
	if err != nil {
		return nil, err
	}
	rep := &report{}
	return rep, json.Unmarshal(data, rep)
}

// runAll runs both passes of every workload and prints one document.
func runAll(opt options) error {
	var reports []*report
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := child(w, opt, traced, opt.outDir)
			if err != nil {
				return err
			}
			reports = append(reports, rep)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"provenance": newProvenance(opt), "runs": reports})
}
