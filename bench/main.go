// Command bench is the repository's end-to-end and per-layer benchmark
// of the MPMCS pipeline. Each workload is a pinned corpus of fault trees
// (corpus.json), sent in seeded order through the entry points users
// hit: the mpmcs4fta path
// (ft.ReadJSON, then core.Analyze or core.AnalyzeTopKComplete, then the
// solution JSON) and real loopback HTTP into an in-process mpmcsd. Every
// answer is checked against an independent reference. The program sees
// only the generated tree documents.
//
// Usage, from this directory:
//
//	go run . -workload cli-mixed -seed 1 -seconds 25 -trace 0
//	go run . -seed 1 -out runs.jsonl     # all four workloads
//	go run . -compare A.jsonl B.jsonl    # apply BENCHMARK.json's bounds
//	go run . -pin corpus.json            # re-pin the corpora (rarely)
//
// With -trace 0 a run reports the end-to-end metrics of BENCHMARK.json;
// with -trace 1 it reports the per-layer metrics instead. The last line
// of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is what one workload run is told.
type runConfig struct {
	seed   int64
	budget time.Duration // the timed phase
	trace  bool
	small  bool // three-tree corpora and probes, for the smoke test
}

// size scales a probe size or repetition count down for small runs.
func (c runConfig) size(n int) int {
	if c.small {
		return min(n, 3)
	}
	return n
}

// metric is one reported number. samples is printed in the
// human-readable table and left out of the JSON result.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// report collects one run's ops, failures and metrics.
type report struct {
	attempted, failed int
	calibMS           float64 // the calibration loop's median time
	failures          []string
	notes             []string
	metrics           map[string]metric
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) add(name string, v float64, unit string, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unit, samples: samples}
}

func (r *report) merge(m map[string]metric) {
	for k, v := range m {
		r.metrics[k] = v
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// record counts one op and keeps its failure, if any, with the generator
// call that reproduces the tree.
func (r *report) record(it *item, res opResult) {
	r.attempted++
	if res.fail != "" {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("%s: %s", it.repro, res.fail))
	}
}

func (r *report) recordResponse(resp *response) {
	r.record(resp.req.it, opResult{fail: resp.check()})
}

// result is the line the benchmark's caller reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is one line of an -out file: a run's result and its context.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  int     `json:"seconds"`
	Trace    bool    `json:"trace"`
	Env      env     `json:"env"`
	CalibMS  float64 `json:"calib_ms"`
	Result   result  `json:"result"`
}

type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

var workloads = []struct {
	name string
	run  func(runConfig) (*report, error)
}{
	{"cli-mixed", func(c runConfig) (*report, error) { return runClosed("cli-mixed", analyzeLoop, c) }},
	{"modular", func(c runConfig) (*report, error) { return runClosed("modular", analyzeLoop, c) }},
	{"topk-deep", func(c runConfig) (*report, error) { return runClosed("topk-deep", topkLoop, c) }},
	{"serve-mix", runServeMix},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (default: all four)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 25, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	out := fs.String("out", "", "append each run's record to this JSON-lines file")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare A.jsonl B.jsonl")
	pinTo := fs.String("pin", "", "draw, screen and pin every workload's corpus to this file (corpus.json), then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pinTo != "" {
		return runPin(*pinTo, os.Stderr)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two -out files")
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("usage: bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]")
	}
	known := *workload == ""
	for _, w := range workloads {
		known = known || w.name == *workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (have %s)", *workload, workloadNames())
	}
	cfg := runConfig{seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	e := env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	for _, w := range workloads {
		if *workload != "" && *workload != w.name {
			continue
		}
		rep, err := runWorkload(w.run, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}
		printReport(stdout, w.name, cfg, e, rep)
		if *out != "" {
			if err := appendRecord(*out, runRecord{Workload: w.name, Seed: cfg.seed, Seconds: *seconds, Trace: cfg.trace, Env: e, CalibMS: rep.calibMS, Result: res}); err != nil {
				return err
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(line))
	}
	return nil
}

// runWorkload runs one workload bracketed by the calibration loop,
// whose time tells machine drift from a regression: a traced run
// reports it as calib_ms, an untraced one in its notes and -out record.
func runWorkload(run func(runConfig) (*report, error), cfg runConfig) (*report, error) {
	calib := calibrate()
	rep, err := run(cfg)
	if err != nil {
		return nil, err
	}
	calib = append(calib, calibrate()...)
	rep.calibMS = median(calib)
	if cfg.trace {
		rep.add("calib_ms", rep.calibMS, "ms", len(calib))
	}
	return rep, nil
}

// printReport writes the human-readable block of one run: context,
// failures with their reproducers, and every metric with unit and
// sample count.
func printReport(w io.Writer, name string, cfg runConfig, e env, rep *report) {
	fmt.Fprintf(w, "# %s seed=%d seconds=%d trace=%v nproc=%d GOMAXPROCS=%d go=%s\n",
		name, cfg.seed, int(cfg.budget.Seconds()), cfg.trace, e.NumCPU, e.GOMAXPROCS, e.Go)
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "# calibration loop %.1f ms\n", rep.calibMS)
	fmt.Fprintf(w, "# %d ops attempted, %d failed\n", rep.attempted, rep.failed)
	for i, f := range rep.failures {
		if i == 20 {
			fmt.Fprintf(w, "# ... %d more failures\n", len(rep.failures)-i)
			break
		}
		fmt.Fprintf(w, "# FAIL %s\n", f)
	}
	keys := make([]string, 0, len(rep.metrics))
	for k := range rep.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := rep.metrics[k]
		fmt.Fprintf(w, "%-36s %14.4f %-6s n=%d\n", k, m.Value, m.Unit, m.samples)
	}
}

func appendRecord(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// spec is the part of BENCHMARK.json the benchmark reads back: the
// declared metrics and their bounds.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root, whether the
// benchmark runs from the root or from its own directory.
func loadSpec() (*spec, error) {
	var lastErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			lastErr = err
			continue
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json: %w", lastErr)
}

// workloadNames lists the workloads in run order.
func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
