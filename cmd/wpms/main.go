// Command wpms is a standalone Weighted Partial MaxSAT solver over
// DIMACS WCNF files, exposing the library's solver portfolio outside
// the fault-tree pipeline. Output follows the MaxSAT-evaluation
// conventions: "c" comments, "o <cost>" for the optimum, "s" for the
// status line, and "v" for the model.
//
// Usage:
//
//	wpms -input instance.wcnf [-engine portfolio|NAME] [-timeout 60s] [-quiet]
//
// NAME runs one member of portfolio.DefaultEngines on its own; the
// -engine help lists them.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/maxsat"
	"mpmcs4fta/internal/portfolio"
	"mpmcs4fta/internal/serve"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wpms:", err)
	}
	os.Exit(code)
}

// run executes the solver and returns the process exit code following
// MaxSAT-evaluation conventions (serve.WPMSExitCode, one row of the
// shared status table): 0 unknown/error, 30 optimum found, 20
// unsatisfiable, 10 satisfiable (anytime incumbent whose optimality
// was not proven before the deadline).
func run(args []string, stdout io.Writer) (int, error) {
	engines := portfolio.DefaultEngines()
	names := []string{"portfolio"}
	for _, e := range engines {
		names = append(names, e.Name)
	}
	fs := flag.NewFlagSet("wpms", flag.ContinueOnError)
	var (
		input   = fs.String("input", "", "WCNF instance file (required)")
		engine  = fs.String("engine", "portfolio", "engine: "+strings.Join(names, ", "))
		timeout = fs.Duration("timeout", 0, "solve timeout (0 = none)")
		quiet   = fs.Bool("quiet", false, "suppress the v (model) line")
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if *input == "" {
		fs.Usage()
		return 0, fmt.Errorf("-input is required")
	}

	f, err := os.Open(*input)
	if err != nil {
		return 0, err
	}
	inst, err := cnf.ReadWCNFAuto(f)
	f.Close()
	if err != nil {
		return 0, err
	}
	//lint:ignore weightsafe TotalSoftWeight saturates at MaxInt64-1, so the +1 top weight cannot overflow
	top := inst.TotalSoftWeight() + 1
	fmt.Fprintf(stdout, "c wpms: %d vars, %d hard, %d soft, top weight %d\n",
		inst.NumVars, len(inst.Hard), len(inst.Soft), top)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	var (
		res    maxsat.Result
		winner string
	)
	if *engine == "portfolio" {
		var report portfolio.Report
		res, report, err = portfolio.Solve(ctx, inst, engines)
		winner = report.Winner
	} else {
		i := slices.IndexFunc(engines, func(e portfolio.Engine) bool { return e.Name == *engine })
		if i < 0 {
			return 0, fmt.Errorf("unknown engine %q", *engine)
		}
		res, err = engines[i].Solver.Solve(ctx, inst)
		winner = engines[i].Name
	}
	if err != nil {
		fmt.Fprintln(stdout, "s UNKNOWN")
		return 0, err
	}
	fmt.Fprintf(stdout, "c solved by %s in %v\n", winner, time.Since(start).Round(time.Microsecond))

	switch res.Status {
	case maxsat.Infeasible:
		fmt.Fprintln(stdout, "s UNSATISFIABLE")
	case maxsat.Optimal:
		fmt.Fprintf(stdout, "o %d\n", res.Cost)
		fmt.Fprintln(stdout, "s OPTIMUM FOUND")
		if !*quiet {
			fmt.Fprintln(stdout, "v "+modelLine(res.Model, inst.NumVars))
		}
	case maxsat.Feasible:
		fmt.Fprintf(stdout, "c lower bound %d, optimality gap %d\n", res.LowerBound, res.Gap())
		fmt.Fprintf(stdout, "o %d\n", res.Cost)
		fmt.Fprintln(stdout, "s SATISFIABLE")
		if !*quiet {
			fmt.Fprintln(stdout, "v "+modelLine(res.Model, inst.NumVars))
		}
	default:
		fmt.Fprintln(stdout, "s UNKNOWN")
	}
	return serve.WPMSExitCode(res.Status), nil
}

func modelLine(model []bool, numVars int) string {
	var b strings.Builder
	for v := 1; v <= numVars; v++ {
		if v > 1 {
			b.WriteByte(' ')
		}
		if v < len(model) && model[v] {
			b.WriteString(fmt.Sprint(v))
		} else {
			b.WriteString(fmt.Sprint(-v))
		}
	}
	return b.String()
}
