// Command ftdiff is the differential-correctness gate: it runs every
// MaxSAT engine configuration of the portfolio individually on the same
// instances and cross-checks optimum cost, model feasibility, decoded
// cut sets and MPMCS probability against the BDD top-k oracle and the
// exact quantitative layer (see internal/differ). It exits nonzero on
// any disagreement, which makes it usable both as a local debugging
// tool and as a CI gate.
//
// Inputs are fault-tree files (.json or .txt), raw MaxSAT instances
// (.wcnf, classic or 2022 dialect), and/or seeded random instances from
// the workload generator:
//
//	ftdiff testdata/*.json testdata/*.txt
//	ftdiff -random 50 -events 12 -voting 0.25
//	ftdiff -random 1 -seed 1337 -topk 5 instance.wcnf
//
// The -deadline mode exercises the anytime contract: every engine runs
// under the given short budget, and interrupted engines must return
// sound FEASIBLE incumbents — model feasible, cost at or above the
// optimum, proven lower bound at or below it, decoded probability never
// beating the BDD oracle (top-k ranking is skipped, as an interrupted
// round cannot promise rank order).
//
// When a random instance diverges, ftdiff shrinks the generator
// configuration to a locally minimal reproducer and prints it.
//
// Exit codes: 0 all instances agree, 1 divergence found, 2 bad usage or
// input error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/differ"
	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/gen"
	"mpmcs4fta/internal/obs"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftdiff:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("ftdiff", flag.ContinueOnError)
	var (
		random   = fs.Int("random", 0, "additionally check this many seeded random instances")
		seed     = fs.Int64("seed", 1, "base seed for random instances (instance i uses seed+i)")
		events   = fs.Int("events", 10, "basic events per random instance")
		fanIn    = fs.Int("fanin", 4, "maximum gate fan-in of random instances")
		voting   = fs.Float64("voting", 0.25, "fraction of voting gates in random instances")
		topK     = fs.Int("topk", 3, "also cross-check the first K ranked cut sets (0 = off)")
		timeout  = fs.Duration("timeout", time.Minute, "per-engine solve timeout")
		deadline = fs.Duration("deadline", 0, "anytime mode: run each engine under this short budget and cross-check FEASIBLE answers against the BDD oracle (disables -topk)")
		verbose  = fs.Bool("v", false, "print every report, not only divergent ones")
		obsAddr  = fs.String("obs-listen", "", "serve live telemetry on this address: /metrics (Prometheus), /events (SSE bound trajectory), /debug/pprof")
	)
	if err := fs.Parse(args); err != nil {
		return 2, nil // flag package already printed the error
	}
	if *random < 0 {
		return 2, fmt.Errorf("-random must be non-negative")
	}
	if *deadline < 0 {
		return 2, fmt.Errorf("-deadline must be non-negative")
	}
	if len(fs.Args()) == 0 && *random == 0 {
		fs.Usage()
		return 2, fmt.Errorf("nothing to check: give input files and/or -random N")
	}

	opts := differ.Options{TopK: *topK, Timeout: *timeout}
	if *deadline > 0 {
		opts.Timeout = *deadline
		opts.TopK = 0
	}
	ctx := context.Background()
	if *obsAddr != "" {
		// The differ's engines read the bus and metrics straight from
		// the context, so no differ.Options plumbing is needed.
		metrics := obs.NewMetrics()
		bus := obs.NewEventBus()
		srv := obs.NewServer(metrics, bus)
		bound, serr := srv.Start(*obsAddr)
		if serr != nil {
			return 2, serr
		}
		defer srv.Close()
		ctx = obs.ContextWithBus(obs.ContextWithMetrics(ctx, metrics), bus)
		fmt.Fprintf(os.Stderr, "ftdiff: telemetry on http://%s/metrics and http://%s/events\n", bound, bound)
	}
	checked, divergent := 0, 0

	show := func(rep *differ.Report) {
		checked++
		if !rep.OK() {
			divergent++
		}
		if *verbose || !rep.OK() {
			fmt.Fprint(stdout, rep)
		}
	}

	for _, path := range fs.Args() {
		rep, err := checkFile(ctx, path, opts)
		if err != nil {
			return 2, err
		}
		show(rep)
	}

	for i := 0; i < *random; i++ {
		cfg := gen.Config{
			Events:     *events,
			MaxFanIn:   *fanIn,
			VotingFrac: *voting,
			Seed:       *seed + int64(i),
		}
		rep, err := differ.CheckRandom(ctx, cfg, opts)
		if err != nil {
			return 2, fmt.Errorf("random seed %d: %w", cfg.Seed, err)
		}
		show(rep)
		if !rep.OK() {
			minCfg, minRep := differ.Shrink(ctx, cfg, opts)
			fmt.Fprintf(stdout, "minimized reproducer: -random 1 -seed %d -events %d -fanin %d -voting %g\n",
				minCfg.Seed, minCfg.Events, minCfg.MaxFanIn, minCfg.VotingFrac)
			if minRep != nil {
				fmt.Fprint(stdout, minRep)
			}
		}
	}

	if divergent > 0 {
		fmt.Fprintf(stdout, "ftdiff: %d of %d instance(s) DIVERGED\n", divergent, checked)
		return 1, nil
	}
	fmt.Fprintf(stdout, "ftdiff: %d instance(s), all engines agree\n", checked)
	return 0, nil
}

// checkFile dispatches on the file extension: fault trees run the full
// harness (BDD + quant oracles), raw WCNF instances the engine-level
// agreement checks.
func checkFile(ctx context.Context, path string, opts differ.Options) (*differ.Report, error) {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".wcnf":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		inst, err := cnf.ReadWCNFAuto(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rep, err := differ.CheckWCNF(ctx, inst, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rep.Name = path
		return rep, nil
	case ".json", ".txt":
		tree, err := ft.ReadFile(path, "")
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rep, err := differ.CheckTree(ctx, tree, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rep.Name == "" {
			rep.Name = path
		}
		return rep, nil
	default:
		return nil, fmt.Errorf("%s: unknown input type (want .json, .txt or .wcnf)", path)
	}
}
