package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"mpmcs4fta/internal/boolexpr"
	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/core"
	"mpmcs4fta/internal/fp"
	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/gen"
	"mpmcs4fta/internal/maxsat"
	"mpmcs4fta/internal/portfolio"
	"mpmcs4fta/internal/quant"
	"mpmcs4fta/internal/sim"
)

// runE1 reproduces the paper's worked example: the FPS tree's MPMCS is
// {x1, x2} with joint probability 0.02.
func runE1(ctx context.Context, w io.Writer, p params) error {
	tree := gen.FPS()
	sol, err := core.Analyze(ctx, tree, p.options(core.Options{Timeout: p.timeout}))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "tree: %s (%d events, %d gates)\n", sol.Tree, sol.Stats.Events, sol.Stats.Gates)
	fmt.Fprintf(w, "MPMCS: %v\n", sol.CutSetIDs())
	fmt.Fprintf(w, "probability: %.6g   (paper: {x1,x2} with 0.02)\n", sol.Probability)
	fmt.Fprintf(w, "winner: %s   elapsed: %.3f ms\n", sol.Solver, sol.ElapsedMS)
	status := "MATCH"
	if fmt.Sprintf("%v", sol.CutSetIDs()) != "[x1 x2]" || !fp.Eq(sol.Probability, 0.02) {
		status = "MISMATCH"
	}
	fmt.Fprintf(w, "paper agreement: %s\n", status)
	return nil
}

// runE2 reprints Table I from the Step-3 transform.
func runE2(_ context.Context, w io.Writer, p params) error {
	steps, err := core.BuildSteps(gen.FPS(), p.options(core.Options{}))
	if err != nil {
		return err
	}
	paper := map[string]float64{
		"x1": 1.60944, "x2": 2.30259, "x3": 6.90776, "x4": 6.21461,
		"x5": 2.99573, "x6": 2.30259, "x7": 2.99573,
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "event\tp(xi)\twi=-ln(p)\tpaper wi\tscaled")
	for _, weight := range steps.Weights {
		fmt.Fprintf(tw, "%s\t%g\t%.5f\t%.5f\t%d\n",
			weight.ID, weight.Prob, weight.Weight, paper[weight.ID], weight.Scaled)
	}
	return tw.Flush()
}

// runE3 emits the Fig. 2 artefact: the tool's JSON solution document.
func runE3(ctx context.Context, w io.Writer, p params) error {
	sol, err := core.Analyze(ctx, gen.FPS(), p.options(core.Options{Sequential: true, Timeout: p.timeout}))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sol)
}

// runE4 measures wall-clock time of the full pipeline across tree
// sizes — the paper's "thousands of nodes in seconds" claim.
func runE4(ctx context.Context, w io.Writer, p params) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "events\tnodes\tvars\thard\tsoft\ttime\twinner\tP(MPMCS)\t|MPMCS|")
	for _, n := range p.sizes {
		tree, err := gen.Random(gen.Config{Events: n, Seed: p.seed})
		if err != nil {
			return err
		}
		start := time.Now()
		sol, err := core.Analyze(ctx, tree, p.options(core.Options{Timeout: p.timeout}))
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(tw, "%d\t-\t-\t-\t-\t%s\terror: %v\t-\t-\n", n, fmtDur(elapsed), err)
			continue
		}
		stats := tree.Stats()
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%s\t%s\t%.3g\t%d\n",
			n, stats.Events+stats.Gates, sol.Stats.Vars, sol.Stats.HardClauses,
			sol.Stats.SoftClauses, fmtDur(elapsed), sol.Solver, sol.Probability, len(sol.MPMCS))
	}
	return tw.Flush()
}

// runE5 contrasts each engine alone with the parallel portfolio on the
// same instances (Step-5 motivation).
func runE5(ctx context.Context, w io.Writer, p params) error {
	engines := portfolio.DefaultEngines()
	sizes := capSizes(p.sizes, 2000)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := "events"
	for _, e := range engines {
		header += "\t" + e.Name
	}
	fmt.Fprintln(tw, header+"\tportfolio\twinner")
	for _, n := range sizes {
		tree, err := gen.Random(gen.Config{Events: n, Seed: p.seed})
		if err != nil {
			return err
		}
		steps, err := core.BuildSteps(tree, p.options(core.Options{}))
		if err != nil {
			return err
		}
		row := fmt.Sprintf("%d", n)
		for _, e := range engines {
			engCtx, cancel := context.WithTimeout(ctx, p.timeout)
			start := time.Now()
			_, err := e.Solver.Solve(engCtx, steps.Instance.Clone())
			elapsed := time.Since(start)
			cancel()
			if err != nil {
				row += "\ttimeout"
			} else {
				row += "\t" + fmtDur(elapsed)
			}
		}
		pfCtx, cancel := context.WithTimeout(ctx, p.timeout)
		start := time.Now()
		_, report, err := portfolio.Solve(pfCtx, steps.Instance, engines)
		elapsed := time.Since(start)
		cancel()
		if err != nil {
			row += "\terror\t-"
		} else {
			row += "\t" + fmtDur(elapsed) + "\t" + report.Winner
		}
		fmt.Fprintln(tw, row)
	}
	return tw.Flush()
}

// runE6 compares the MaxSAT pipeline with the BDD baseline.
func runE6(ctx context.Context, w io.Writer, p params) error {
	sizes := capSizes(p.sizes, 2000)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "events\tmaxsat\tbdd\tbdd nodes\tagree")
	for _, n := range sizes {
		tree, err := gen.Random(gen.Config{Events: n, Seed: p.seed})
		if err != nil {
			return err
		}
		start := time.Now()
		viaSAT, err := core.Analyze(ctx, tree, p.options(core.Options{Timeout: p.timeout}))
		satTime := time.Since(start)
		if err != nil {
			return err
		}
		start = time.Now()
		viaBDD, err := core.AnalyzeBDD(tree, p.options(core.Options{}))
		bddTime := time.Since(start)
		if err != nil {
			// Random trees can blow the BDD up — that asymmetry is the
			// point of the comparison, so report it as a data point.
			fmt.Fprintf(tw, "%d\t%s\t%s\t-\t%v\n", n, fmtDur(satTime), fmtDur(bddTime), err)
			continue
		}
		agree := "yes"
		if !fp.Eq(viaSAT.Probability, viaBDD.Probability) {
			agree = fmt.Sprintf("NO (%g vs %g)", viaSAT.Probability, viaBDD.Probability)
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%d\t%s\n", n, fmtDur(satTime), fmtDur(bddTime), viaBDD.Stats.Vars, agree)
	}
	return tw.Flush()
}

// runE7 measures the native K-of-N threshold encoding against explicit
// AND/OR expansion of voting gates.
func runE7(ctx context.Context, w io.Writer, p params) error {
	sizes := capSizes(p.sizes, 1000)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "events\tnative vars\tnative clauses\tnative time\texpanded vars\texpanded clauses\texpanded time\tagree")
	for _, n := range sizes {
		tree, err := gen.Random(gen.Config{Events: n, Seed: p.seed, VotingFrac: 0.4, MaxFanIn: 6})
		if err != nil {
			return err
		}
		steps, err := core.BuildSteps(tree, p.options(core.Options{}))
		if err != nil {
			return err
		}
		start := time.Now()
		nativeRes, err := solveWPMS(ctx, steps.Instance, p.timeout)
		nativeTime := time.Since(start)
		if err != nil {
			return err
		}

		// Expanded variant: rewrite every AtLeast before encoding.
		f, err := tree.Formula()
		if err != nil {
			return err
		}
		expanded := boolexpr.Simplify(boolexpr.ExpandAtLeast(boolexpr.Not{X: boolexpr.Dual(f)}))
		events := tree.Events()
		order := make([]string, len(events))
		for i, e := range events {
			order[i] = e.ID
		}
		enc, err := cnf.Tseitin(expanded, cnf.TseitinOptions{VarOrder: order})
		if err != nil {
			return err
		}
		inst := core.WPMSInstance(enc, core.LogWeights(events, core.DefaultScale))
		start = time.Now()
		expandedRes, err := solveWPMS(ctx, inst, p.timeout)
		expandedTime := time.Since(start)
		if err != nil {
			return err
		}

		agree := "yes"
		if nativeRes.Cost != expandedRes.Cost {
			agree = fmt.Sprintf("NO (%d vs %d)", nativeRes.Cost, expandedRes.Cost)
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%s\t%d\t%d\t%s\t%s\n",
			n, steps.Instance.NumVars, len(steps.Instance.Hard), fmtDur(nativeTime),
			inst.NumVars, len(inst.Hard), fmtDur(expandedTime), agree)
	}
	return tw.Flush()
}

// runE8 compares the Step-2 encodings.
func runE8(ctx context.Context, w io.Writer, p params) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "events\tfull vars\tfull clauses\tfull time\tpg vars\tpg clauses\tpg time\tagree")
	for _, n := range p.sizes {
		tree, err := gen.Random(gen.Config{Events: n, Seed: p.seed})
		if err != nil {
			return err
		}
		full, err := core.BuildSteps(tree, p.options(core.Options{}))
		if err != nil {
			return err
		}
		pg, err := core.BuildSteps(tree, p.options(core.Options{PlaistedGreenbaum: true}))
		if err != nil {
			return err
		}
		start := time.Now()
		fullRes, err := solveWPMS(ctx, full.Instance, p.timeout)
		fullTime := time.Since(start)
		if err != nil {
			return err
		}
		start = time.Now()
		pgRes, err := solveWPMS(ctx, pg.Instance, p.timeout)
		pgTime := time.Since(start)
		if err != nil {
			return err
		}
		agree := "yes"
		if fullRes.Cost != pgRes.Cost {
			agree = fmt.Sprintf("NO (%d vs %d)", fullRes.Cost, pgRes.Cost)
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%s\t%d\t%d\t%s\t%s\n",
			n, full.Instance.NumVars, len(full.Instance.Hard), fmtDur(fullTime),
			pg.Instance.NumVars, len(pg.Instance.Hard), fmtDur(pgTime), agree)
	}
	return tw.Flush()
}

// runE9 ranks the top cut sets of the FPS tree and of a larger random
// tree.
func runE9(ctx context.Context, w io.Writer, p params) error {
	fmt.Fprintln(w, "FPS tree, all ranked cut sets:")
	sols, err := core.AnalyzeTopK(ctx, gen.FPS(), 10, p.options(core.Options{Sequential: true, Timeout: p.timeout}))
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rank\tcut set\tprobability")
	for i, sol := range sols {
		fmt.Fprintf(tw, "%d\t%v\t%.6g\n", i+1, sol.CutSetIDs(), sol.Probability)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	n := 500
	if len(p.sizes) > 0 {
		n = capSizes(p.sizes, 1000)[0]
	}
	tree, err := gen.Random(gen.Config{Events: n, Seed: p.seed})
	if err != nil {
		return err
	}
	start := time.Now()
	ranked, err := core.AnalyzeTopK(ctx, tree, 10, p.options(core.Options{Timeout: p.timeout}))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "random tree (%d events), top %d of its cut sets in %s:\n", n, len(ranked), fmtDur(time.Since(start)))
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rank\t|set|\tprobability")
	for i, sol := range ranked {
		fmt.Fprintf(tw, "%d\t%d\t%.6g\n", i+1, len(sol.MPMCS), sol.Probability)
	}
	return tw.Flush()
}

// runE10 compares linear-time bottom-up probability with the exact BDD
// computation on strictly tree-shaped workloads, including sizes where
// the BDD exceeds its node budget.
func runE10(_ context.Context, w io.Writer, p params) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "events\tbottom-up\tbdd\tP(top)\tagree")
	for _, n := range p.sizes {
		tree, err := gen.Random(gen.Config{Events: n, Seed: p.seed, NoSharing: true, VotingFrac: 0.2})
		if err != nil {
			return err
		}
		start := time.Now()
		fast, err := quant.BottomUpProbability(tree)
		fastTime := time.Since(start)
		if err != nil {
			return err
		}
		start = time.Now()
		exact, err := quant.TopEventProbability(tree)
		bddTime := time.Since(start)
		if err != nil {
			fmt.Fprintf(tw, "%d\t%s\t%s\t%.4g\t%v\n", n, fmtDur(fastTime), fmtDur(bddTime), fast, err)
			continue
		}
		agree := "yes"
		// Below ~1e-100 the two evaluation orders underflow differently
		// (the BDD's Shannon sums reach exact 0 first); both answers
		// mean "never happens", so call that agreement.
		const negligible = 1e-100
		if !fp.Eq(fast, exact) && (fast > negligible || exact > negligible) {
			agree = fmt.Sprintf("NO (%g vs %g)", fast, exact)
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.4g\t%s\n", n, fmtDur(fastTime), fmtDur(bddTime), exact, agree)
	}
	return tw.Flush()
}

// runE11 cross-validates the analytic machinery with Monte-Carlo
// sampling: P(top) by three exact engines vs simulation, and the
// MPMCS's dominance among sampled failures.
func runE11(ctx context.Context, w io.Writer, p params) error {
	const trials = 200000
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "tree\texact P(top)\tmodular\tsimulated\tstderr\tz\tMPMCS dominance")
	trees := []*ft.Tree{gen.FPS(), gen.PressureTank(), gen.RedundantSCADA()}
	for seed := int64(0); seed < 3; seed++ {
		tree, err := gen.Random(gen.Config{
			Events: 20, Seed: p.seed + seed, VotingFrac: 0.2,
			MinProb: 0.01, MaxProb: 0.3,
		})
		if err != nil {
			return err
		}
		trees = append(trees, tree)
	}
	for _, tree := range trees {
		exact, err := quant.TopEventProbability(tree)
		if err != nil {
			return err
		}
		modular, err := quant.ModularProbability(tree)
		if err != nil {
			return err
		}
		sol, err := core.Analyze(ctx, tree, p.options(core.Options{Timeout: p.timeout}))
		if err != nil {
			return err
		}
		top, dominance, err := sim.Dominance(tree, sol.CutSetIDs(), trials, 42)
		if err != nil {
			return err
		}
		z := 0.0
		if top.StdErr > 0 {
			z = (top.Probability - exact) / top.StdErr
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%.6g\t%.6g\t%.2g\t%+.2f\t%.1f%%\n",
			tree.Name(), exact, modular, top.Probability, top.StdErr, z,
			100*dominance.Probability)
	}
	return tw.Flush()
}

func solveWPMS(ctx context.Context, inst *cnf.WCNF, timeout time.Duration) (maxsat.Result, error) {
	runCtx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res, _, err := portfolio.Solve(runCtx, inst, portfolio.DefaultEngines())
	return res, err
}

func capSizes(sizes []int, limit int) []int {
	var out []int
	for _, n := range sizes {
		if n <= limit {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []int{limit}
	}
	return out
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1000)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
