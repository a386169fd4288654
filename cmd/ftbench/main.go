// Command ftbench regenerates every table and figure of the paper's
// evaluation, plus the ablation experiments listed in DESIGN.md
// (experiment ids E1–E11). Output is aligned text suitable for diffing
// against EXPERIMENTS.md.
//
// Usage:
//
//	ftbench -exp all
//	ftbench -exp e4 -sizes 50,100,500,1000 -timeout 60s
//	ftbench -exp e4 -trace spans.json -metrics -
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"mpmcs4fta/internal/core"
	"mpmcs4fta/internal/obs"
)

type params struct {
	sizes   []int
	seed    int64
	timeout time.Duration
	tracer  obs.Tracer
	metrics *obs.Metrics
}

// options applies the shared observability configuration to a
// per-experiment Options value; every experiment builds its Options
// through this helper so -trace and -metrics cover all of them.
func (p params) options(o core.Options) core.Options {
	o.Tracer = p.tracer
	o.Metrics = p.metrics
	return o
}

type experiment struct {
	id    string
	title string
	run   func(ctx context.Context, w io.Writer, p params) error
}

func experiments() []experiment {
	return []experiment{
		{"e1", "Fig. 1 / §II — FPS example MPMCS", runE1},
		{"e2", "Table I — probabilities and −log weights", runE2},
		{"e3", "Fig. 2 — JSON solution document", runE3},
		{"e4", "§IV — scalability to thousands of nodes", runE4},
		{"e5", "§III Step 5 — portfolio vs single engines", runE5},
		{"e6", "§IV future work — MaxSAT vs BDD baseline", runE6},
		{"e7", "§IV future work — native voting gates vs expansion", runE7},
		{"e8", "§III Step 2 — Tseitin vs Plaisted-Greenbaum", runE8},
		{"e9", "§IV fault prioritisation — top-k ranked cut sets", runE9},
		{"e10", "extension — bottom-up vs BDD top-event probability", runE10},
		{"e11", "validation — Monte-Carlo vs analytic probabilities", runE11},
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ftbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	exps := experiments()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.id
	}
	fs := flag.NewFlagSet("ftbench", flag.ContinueOnError)
	var (
		expFlag  = fs.String("exp", "all", "comma-separated experiment ids ("+strings.Join(ids, ",")+") or 'all'")
		sizes    = fs.String("sizes", "50,100,500,1000,2000,5000", "tree sizes (basic events) for scaling experiments")
		seed     = fs.Int64("seed", 1, "workload seed")
		timeout  = fs.Duration("timeout", 2*time.Minute, "per-instance timeout")
		listFlag = fs.Bool("list", false, "list available experiments and exit")
		traceOut = fs.String("trace", "", "write a hierarchical span trace of every analysis as JSON")
		metrics  = fs.String("metrics", "", "write a metrics snapshot in the /metrics Prometheus text format ('-' for stderr)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile covering the whole run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listFlag {
		for _, e := range exps {
			fmt.Fprintf(stdout, "%-4s %s\n", e.id, e.title)
		}
		return nil
	}

	p := params{seed: *seed, timeout: *timeout}
	if *traceOut != "" {
		tracer := obs.NewJSONTracer()
		p.tracer = tracer
		defer func() {
			if werr := writeFile(*traceOut, tracer.WriteJSON); err == nil {
				err = werr
			}
		}()
	}
	if *metrics != "" {
		p.metrics = obs.NewMetrics()
		target := *metrics
		defer func() {
			var werr error
			if target == "-" {
				werr = p.metrics.WritePrometheus(os.Stderr)
			} else {
				werr = writeFile(target, p.metrics.WritePrometheus)
			}
			if err == nil {
				err = werr
			}
		}()
	}
	if *cpuProf != "" {
		stop, perr := obs.StartCPUProfile(*cpuProf)
		if perr != nil {
			return perr
		}
		defer stop()
	}
	for _, tok := range strings.Split(*sizes, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		n, err := strconv.Atoi(tok)
		if err != nil || n < 2 {
			return fmt.Errorf("bad size %q", tok)
		}
		p.sizes = append(p.sizes, n)
	}

	want := make(map[string]bool)
	if *expFlag == "all" {
		for _, id := range ids {
			want[id] = true
		}
	} else {
		for _, tok := range strings.Split(*expFlag, ",") {
			id := strings.ToLower(strings.TrimSpace(tok))
			if id == "" {
				continue
			}
			if !slices.Contains(ids, id) {
				return fmt.Errorf("unknown experiment %q (have %s or all)", id, strings.Join(ids, ","))
			}
			want[id] = true
		}
	}
	if len(want) == 0 {
		return fmt.Errorf("-exp %q names no experiment", *expFlag)
	}

	ctx := context.Background()
	for _, e := range exps {
		if !want[e.id] {
			continue
		}
		fmt.Fprintf(stdout, "== %s: %s ==\n", strings.ToUpper(e.id), e.title)
		if err := e.run(ctx, stdout, p); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
