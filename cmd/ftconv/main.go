// Command ftconv converts fault trees between the JSON and text
// interchange formats, renders Graphviz DOT, and prints structural
// statistics — the glue tool for moving workloads between the other
// commands and external FTA software.
//
// Usage:
//
//	ftconv -input tree.json -to text [-output tree.txt]
//	ftconv -input tree.txt -to dot -probabilities
//	ftconv -input tree.json -to stats
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"mpmcs4fta"
	"mpmcs4fta/internal/ft"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ftconv:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ftconv", flag.ContinueOnError)
	var (
		input  = fs.String("input", "", "fault tree file (required)")
		from   = fs.String("from", "", "input format: json or text (default: by extension)")
		to     = fs.String("to", "json", "output format: json, text, dot or stats")
		output = fs.String("output", "", "output file (default: stdout)")
		probs  = fs.Bool("probabilities", false, "annotate DOT events with probabilities")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *input == "" {
		fs.Usage()
		return fmt.Errorf("-input is required")
	}

	tree, err := ft.ReadFile(*input, *from)
	if err != nil {
		return err
	}

	out := stdout
	if *output != "" {
		f, err := os.Create(*output)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	switch *to {
	case "json":
		return tree.WriteJSON(out)
	case "text":
		return tree.WriteText(out)
	case "dot":
		return tree.WriteDot(out, mpmcs4fta.DotOptions{ShowProbabilities: *probs})
	case "stats":
		return writeStats(out, tree)
	default:
		return fmt.Errorf("unknown output format %q", *to)
	}
}

func writeStats(w io.Writer, tree *mpmcs4fta.Tree) error {
	stats := tree.Stats()
	modules, err := mpmcs4fta.Modules(tree)
	if err != nil {
		return err
	}
	cutSets, err := mpmcs4fta.CountMinimalCutSets(tree)
	if err != nil {
		return err
	}
	treeShaped, err := tree.IsTreeShaped()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "name\t%s\n", tree.Name())
	fmt.Fprintf(tw, "top\t%s\n", tree.Top())
	fmt.Fprintf(tw, "events\t%d\n", stats.Events)
	fmt.Fprintf(tw, "gates\t%d (and %d, or %d, voting %d)\n",
		stats.Gates, stats.AndGates, stats.OrGates, stats.VotingGates)
	fmt.Fprintf(tw, "depth\t%d\n", stats.Depth)
	fmt.Fprintf(tw, "tree shaped\t%v\n", treeShaped)
	fmt.Fprintf(tw, "modules\t%d\n", len(modules))
	fmt.Fprintf(tw, "minimal cut sets\t%d\n", cutSets)
	return tw.Flush()
}
