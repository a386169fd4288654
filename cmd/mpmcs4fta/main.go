// Command mpmcs4fta reproduces the paper's open-source tool: it reads a
// fault tree, computes the Maximum Probability Minimal Cut Set via the
// MaxSAT pipeline (or the BDD baseline), and writes the solution as a
// JSON document. Optionally it emits a Graphviz rendering with the
// MPMCS highlighted — the offline counterpart of the paper's Fig. 2
// browser view.
//
// Usage:
//
//	mpmcs4fta -input tree.json [-format json|text] [-topk N] [-disjoint]
//	          [-engine portfolio|bdd] [-sequential] [-timeout 30s] [-pg]
//	          [-output out.json] [-dot out.dot] [-wcnf out.wcnf] [-report]
//	          [-trace spans.json] [-metrics metrics.prom]
//	          [-cpuprofile cpu.prof]
//
// The input file may also be given as a positional argument. -metrics
// writes the Prometheus text that mpmcsd serves on /metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mpmcs4fta"
	"mpmcs4fta/internal/core"
	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/obs"
	"mpmcs4fta/internal/serve"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpmcs4fta:", err)
	}
	os.Exit(code)
}

// run executes the analysis and returns the process exit code from the
// shared taxonomy (internal/serve status table): 0 OPTIMAL, 10
// FEASIBLE (anytime answer, gap reported), 20 INFEASIBLE (no cut set —
// an explicit empty-set document is still written), 4 deadline with
// nothing to report, 2 usage or unreadable input, 1 internal failure.
func run(args []string, stdout io.Writer) (code int, err error) {
	fs := flag.NewFlagSet("mpmcs4fta", flag.ContinueOnError)
	var (
		input      = fs.String("input", "", "fault tree file (required)")
		format     = fs.String("format", "", "input format: json or text (default: by extension)")
		output     = fs.String("output", "", "solution output file (default: stdout)")
		dotFile    = fs.String("dot", "", "write a Graphviz rendering with the MPMCS highlighted")
		topK       = fs.Int("topk", 1, "number of ranked cut sets to compute")
		engine     = fs.String("engine", "portfolio", "solving engine: portfolio or bdd")
		sequential = fs.Bool("sequential", false, "run portfolio engines sequentially (deterministic)")
		timeout    = fs.Duration("timeout", 0, "overall analysis timeout (0 = none; -engine portfolio only)")
		pg         = fs.Bool("pg", false, "use the Plaisted-Greenbaum CNF encoding")
		wcnfFile   = fs.String("wcnf", "", "also export the Step-4 MaxSAT instance in DIMACS WCNF format")
		report     = fs.Bool("report", false, "emit a full FTA report (P(top), SPOFs, cut-set count, importance measures) around the solution")
		disjoint   = fs.Bool("disjoint", false, "with -topk: enumerate event-disjoint cut sets (independent failure modes)")
		traceFile  = fs.String("trace", "", "write a hierarchical span trace of the analysis as JSON")
		metricsOut = fs.String("metrics", "", "write a metrics snapshot in the /metrics Prometheus text format ('-' for stderr)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the analysis")
	)
	if err := fs.Parse(args); err != nil {
		return serve.ExitUsage, err
	}
	if *input == "" && fs.NArg() == 1 {
		*input = fs.Arg(0)
	}
	if *input == "" {
		fs.Usage()
		return serve.ExitUsage, fmt.Errorf("-input is required")
	}
	if *topK < 1 {
		return serve.ExitUsage, fmt.Errorf("-topk must be positive")
	}

	tree, err := ft.ReadFile(*input, *format)
	if err != nil {
		return serve.ExitUsage, err
	}

	opts := mpmcs4fta.Options{
		Sequential:        *sequential,
		PlaistedGreenbaum: *pg,
		Timeout:           *timeout,
	}

	var tracer *mpmcs4fta.JSONTracer
	if *traceFile != "" {
		tracer = mpmcs4fta.NewJSONTracer()
		opts.Tracer = tracer
		defer func() {
			if werr := writeTrace(*traceFile, tracer); werr != nil && err == nil {
				code, err = serve.ExitError, werr
			}
		}()
	}
	var metrics *mpmcs4fta.Metrics
	if *metricsOut != "" {
		metrics = mpmcs4fta.NewMetrics()
		opts.Metrics = metrics
		defer func() {
			if werr := writeMetrics(*metricsOut, metrics); werr != nil && err == nil {
				code, err = serve.ExitError, werr
			}
		}()
	}
	if *cpuProfile != "" {
		stop, perr := obs.StartCPUProfile(*cpuProfile)
		if perr != nil {
			return serve.ExitError, perr
		}
		defer stop()
	}

	if *wcnfFile != "" {
		steps, err := mpmcs4fta.BuildSteps(tree, opts)
		if err != nil {
			return serve.ExitError, err
		}
		f, err := os.Create(*wcnfFile)
		if err != nil {
			return serve.ExitError, err
		}
		defer f.Close()
		if err := steps.Instance.WriteWCNF(f); err != nil {
			return serve.ExitError, err
		}
	}

	var solutions []*mpmcs4fta.Solution
	switch *engine {
	case "portfolio":
		if *disjoint {
			solutions, err = mpmcs4fta.AnalyzeDisjoint(context.Background(), tree, *topK, opts)
		} else {
			solutions, err = mpmcs4fta.AnalyzeTopK(context.Background(), tree, *topK, opts)
		}
	case "bdd":
		if *disjoint {
			return serve.ExitUsage, fmt.Errorf("-disjoint requires -engine portfolio")
		}
		if *timeout > 0 {
			// The BDD compiler takes no context, so a deadline would
			// go unenforced.
			return serve.ExitUsage, fmt.Errorf("-timeout requires -engine portfolio")
		}
		solutions, err = mpmcs4fta.AnalyzeTopKBDD(tree, *topK, opts)
	default:
		return serve.ExitUsage, fmt.Errorf("unknown engine %q", *engine)
	}
	switch {
	case errors.Is(err, mpmcs4fta.ErrNoCutSet):
		// A definitive verdict about the tree: the top event cannot
		// occur. Report it as an explicit empty-set document, exit 20.
		solutions = []*mpmcs4fta.Solution{core.InfeasibleSolution(tree)}
		err = nil
	case errors.Is(err, mpmcs4fta.ErrNoAnswer):
		return serve.ExitNoAnswer, err
	case err != nil:
		return serve.ExitError, err
	}
	// FEASIBLE anywhere in the ranking means the run hit its budget:
	// the documents are sound but possibly not optimally ranked. The
	// statuses are OPTIMAL, FEASIBLE or a lone INFEASIBLE, so the
	// largest exit code is the run's.
	exitCode := serve.ExitOK
	for _, sol := range solutions {
		exitCode = max(exitCode, serve.ExitCode(sol.Status))
	}

	out := stdout
	if *output != "" {
		f, err := os.Create(*output)
		if err != nil {
			return serve.ExitError, err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	switch {
	case *report:
		doc, rerr := buildReport(tree, solutions)
		if rerr != nil {
			return serve.ExitError, rerr
		}
		err = enc.Encode(doc)
	case *topK == 1:
		err = enc.Encode(solutions[0])
	default:
		err = enc.Encode(solutions)
	}
	if err != nil {
		return serve.ExitError, fmt.Errorf("encode solution: %w", err)
	}

	if *dotFile != "" {
		highlight := make(map[string]bool)
		for _, e := range solutions[0].MPMCS {
			highlight[e.ID] = true
		}
		f, err := os.Create(*dotFile)
		if err != nil {
			return serve.ExitError, err
		}
		defer f.Close()
		if err := tree.WriteDot(f, mpmcs4fta.DotOptions{
			Highlight:         highlight,
			ShowProbabilities: true,
		}); err != nil {
			return serve.ExitError, err
		}
	}
	return exitCode, nil
}

// ftaReport is the extended output of -report: the ranked solutions in
// context of the classical quantitative measures.
type ftaReport struct {
	Solutions           []*mpmcs4fta.Solution  `json:"solutions"`
	TopEventProbability float64                `json:"topEventProbability"`
	MinimalCutSets      int64                  `json:"minimalCutSets"`
	SPOFs               []string               `json:"singlePointsOfFailure"`
	Importance          []mpmcs4fta.Importance `json:"importance"`
	Modules             []string               `json:"modules"`
}

func buildReport(tree *mpmcs4fta.Tree, solutions []*mpmcs4fta.Solution) (*ftaReport, error) {
	top, err := mpmcs4fta.TopEventProbability(tree)
	if err != nil {
		return nil, err
	}
	count, err := mpmcs4fta.CountMinimalCutSets(tree)
	if err != nil {
		return nil, err
	}
	spofs, err := mpmcs4fta.SinglePointsOfFailure(tree)
	if err != nil {
		return nil, err
	}
	measures, err := mpmcs4fta.ImportanceMeasures(tree)
	if err != nil {
		return nil, err
	}
	modules, err := mpmcs4fta.Modules(tree)
	if err != nil {
		return nil, err
	}
	if spofs == nil {
		spofs = []string{}
	}
	return &ftaReport{
		Solutions:           solutions,
		TopEventProbability: top,
		MinimalCutSets:      count,
		SPOFs:               spofs,
		Importance:          measures,
		Modules:             modules,
	}, nil
}

// writeTrace flushes the recorded span tree to path after the analysis
// (including on error, so aborted runs still leave a partial trace).
func writeTrace(path string, tracer *mpmcs4fta.JSONTracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// writeMetrics dumps the registry as /metrics Prometheus text; "-"
// writes to stderr so it composes with -output on stdout.
func writeMetrics(path string, m *mpmcs4fta.Metrics) error {
	if path == "-" {
		return m.WritePrometheus(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WritePrometheus(f); err != nil {
		f.Close()
		return fmt.Errorf("write metrics: %w", err)
	}
	return f.Close()
}
