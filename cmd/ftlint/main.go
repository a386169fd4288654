// Command ftlint runs the repo's domain-aware static analyzers (see
// internal/lint): ctxpoll, weightsafe, floatcmp, guardedby, spanclose,
// goroutinewait, and the summary-driven second generation — arenaref
// (clause-arena reference lifetimes across may-GC calls), lockorder
// (global lock-ordering cycles and may-block calls under a mutex),
// exactlyonce (result delivery that cannot leave a solve stuck
// holding its analysis slot) and errtaxonomy (errors.Is over ==, %w
// over %v, serve responses through the status.go table). It is the
// mechanical enforcement of invariants previously restored by hand
// after incidents.
//
// Usage, over go package patterns:
//
//	ftlint ./...
//	ftlint -c ctxpoll,weightsafe ./internal/sat ./internal/maxsat
//
// Findings are suppressed with an auditable directive on or directly
// above the offending line; the reason is mandatory, and a directive
// that no longer suppresses anything is itself a finding (suppression
// rot):
//
//	//lint:ignore ctxpoll sift-down is bounded by the heap height
//
// Exit codes (matching ftdiff's contract so CI can tell findings from
// breakage): 0 no unsuppressed findings, 1 findings reported, 2 usage
// or load error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mpmcs4fta/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list   = fs.Bool("list", false, "list the analyzers and exit")
		checks = fs.String("c", "", "comma-separated subset of analyzers to run (default: all)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: ftlint [-list] [-c analyzer,...] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := selectAnalyzers(*checks)
	if err != nil {
		fmt.Fprintln(stderr, "ftlint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	fset, targets, all, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "ftlint:", err)
		return 2
	}
	findings := lint.Run(fset, targets, all, analyzers)
	for _, d := range findings {
		fmt.Fprintln(stdout, d)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// selectAnalyzers resolves the -c flag against the registered suite.
func selectAnalyzers(names string) ([]*lint.Analyzer, error) {
	suite := lint.Analyzers()
	if names == "" {
		return suite, nil
	}
	byName := make(map[string]*lint.Analyzer, len(suite))
	for _, a := range suite {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (ftlint -list shows the suite)", name)
		}
		out = append(out, a)
	}
	return out, nil
}
