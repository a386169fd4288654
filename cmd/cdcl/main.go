// Command cdcl is a plain SAT solver over DIMACS CNF files, exposing
// the library's CDCL engine directly. Output follows SAT-competition
// conventions: "s SATISFIABLE|UNSATISFIABLE" plus a "v" model line.
// Exit codes: 10 satisfiable, 20 unsatisfiable, 0 unknown/error.
//
// Usage:
//
//	cdcl -input instance.cnf [-timeout 60s] [-quiet] [-stats]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/sat"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdcl:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("cdcl", flag.ContinueOnError)
	var (
		input   = fs.String("input", "", "DIMACS CNF file (required)")
		timeout = fs.Duration("timeout", 0, "solve timeout (0 = none)")
		quiet   = fs.Bool("quiet", false, "suppress the v (model) line")
		stats   = fs.Bool("stats", false, "print solver statistics as comments")
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
	formula, err := cnf.ReadDIMACS(f)
	f.Close()
	if err != nil {
		return 0, err
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	solver := sat.New(formula.NumVars)
	solver.AddFormula(formula)
	start := time.Now()
	status, err := solver.Solve(ctx)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintln(stdout, "s UNKNOWN")
		return 0, err
	}
	if *stats {
		st := solver.Stats()
		fmt.Fprintf(stdout, "c conflicts %d, decisions %d, propagations %d, restarts %d, learnt %d\n",
			st.Conflicts, st.Decisions, st.Propagations, st.Restarts, st.Learnt)
		fmt.Fprintf(stdout, "c solved in %v\n", elapsed.Round(time.Microsecond))
	}

	switch status {
	case sat.Sat:
		fmt.Fprintln(stdout, "s SATISFIABLE")
		if !*quiet {
			fmt.Fprintln(stdout, "v "+modelLine(solver.Model(), formula.NumVars))
		}
		return 10, nil
	case sat.Unsat:
		fmt.Fprintln(stdout, "s UNSATISFIABLE")
		return 20, nil
	default:
		fmt.Fprintln(stdout, "s UNKNOWN")
		return 0, nil
	}
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
	b.WriteString(" 0")
	return b.String()
}
