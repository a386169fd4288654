package core

import (
	"context"
	"fmt"
	"math"

	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/maxsat"
)

// Analyzer caches Steps 1–2 (the success-tree CNF encoding, which only
// depends on the tree's structure) so that repeated MPMCS analyses
// under changing event probabilities — what-if exploration, sensitivity
// sweeps — pay only for Steps 3–6 per query.
type Analyzer struct {
	tree *ft.Tree // private clone; probabilities mutated per query
	enc  *cnf.Encoding
	opts Options
}

// NewAnalyzer validates and encodes the tree once.
func NewAnalyzer(tree *ft.Tree, opts Options) (*Analyzer, error) {
	opts = opts.withDefaults()
	steps, err := BuildSteps(tree, opts)
	if err != nil {
		return nil, err
	}
	return &Analyzer{tree: tree.Clone(), enc: steps.Encoding, opts: opts}, nil
}

// Analyze computes the MPMCS with the given probability overrides
// applied on top of the tree's base probabilities (pass nil for none).
// Unknown event ids in overrides are rejected.
func (a *Analyzer) Analyze(ctx context.Context, overrides map[string]float64) (*Solution, error) {
	working := a.tree.Clone()
	for id, p := range overrides {
		if err := working.SetProb(id, p); err != nil {
			return nil, err
		}
	}
	weights := LogWeights(working.Events(), a.opts.Scale)

	instance := &cnf.WCNF{NumVars: a.enc.Formula.NumVars}
	for _, clause := range a.enc.Formula.Clauses {
		instance.AddHard(clause...)
	}
	for _, w := range weights {
		y := cnf.Lit(a.enc.VarOf[w.ID])
		switch {
		case w.Hard:
			instance.AddHard(y)
		case w.Scaled > 0:
			instance.AddSoft(w.Scaled, y)
		}
	}

	ctx, cancel := a.opts.withTimeout(ctx)
	defer cancel()
	root := a.opts.tracer().StartSpan("analyze-whatif")
	defer root.End()
	res, report, err := solveSpanned(ctx, instance, a.opts, root)
	if err != nil {
		return nil, err
	}
	switch res.Status {
	case maxsat.Infeasible:
		return nil, ErrNoCutSet
	case maxsat.Optimal, maxsat.Feasible:
	default:
		return nil, noAnswerErr(ctx)
	}
	steps := &Steps{Encoding: a.enc, Weights: weights, Instance: instance}
	sol, err := decodeSolution(working, steps, res, report, a.opts, root)
	if err != nil {
		return nil, err
	}
	recordAnalysisMetrics(a.opts.Metrics, sol, report)
	return sol, nil
}

// SwitchPoint finds the smallest probability of the given event at
// which it enters the MPMCS, holding every other probability fixed. As
// p(e) grows, the best cut set containing e gains probability linearly
// while the best without it stays constant, so membership is monotone
// in p and binary search applies. It returns (1, false, nil) when the
// event stays outside the MPMCS even at p = 1 (e.g. the event is not in
// any minimal cut set competitive at probability one).
func (a *Analyzer) SwitchPoint(ctx context.Context, event string, tol float64) (float64, bool, error) {
	if a.tree.Event(event) == nil {
		return 0, false, fmt.Errorf("core: %q is not a basic event", event)
	}
	if tol <= 0 {
		tol = 1e-6
	}
	contains := func(p float64) (bool, error) {
		sol, err := a.Analyze(ctx, map[string]float64{event: p})
		if err != nil {
			return false, err
		}
		for _, e := range sol.MPMCS {
			if e.ID == event {
				return true, nil
			}
		}
		return false, nil
	}
	atOne, err := contains(1)
	if err != nil {
		return 0, false, err
	}
	if !atOne {
		return 1, false, nil
	}
	lo, hi := 0.0, 1.0
	for hi-lo > tol {
		mid := (lo + hi) / 2
		in, err := contains(mid)
		if err != nil {
			return 0, false, err
		}
		if in {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true, nil
}

// Tree returns a copy of the analyzer's base tree.
func (a *Analyzer) Tree() *ft.Tree { return a.tree.Clone() }

// AnalyzeAbove enumerates every minimal cut set whose probability is at
// least minProb, in descending order — "all the ways the system fails
// with probability ≥ τ". It is the threshold variant of AnalyzeTopK,
// built on the same blocking-clause loop.
func AnalyzeAbove(ctx context.Context, tree *ft.Tree, minProb float64, opts Options) ([]*Solution, error) {
	if minProb <= 0 || math.IsNaN(minProb) {
		return nil, fmt.Errorf("core: minProb must be in (0,1], got %v", minProb)
	}
	opts = opts.withDefaults()
	ctx, cancel := opts.withTimeout(ctx)
	defer cancel()
	root := opts.tracer().StartSpan("analyze-above")
	defer root.End()
	steps, err := buildSteps(tree, opts, root)
	if err != nil {
		return nil, err
	}
	instance := steps.Instance.Clone()

	var out []*Solution
	for {
		res, report, err := solveSpanned(ctx, instance, opts, root)
		if err != nil {
			return out, err
		}
		if res.Status == maxsat.Infeasible {
			break // every cut set enumerated; the rest rank below minProb
		}
		if res.Status == maxsat.Unknown {
			// Deadline with nothing this round. An empty result must not
			// read as "no cut set reaches the threshold" when the truth
			// is "the solver never answered".
			if len(out) == 0 {
				return nil, noAnswerErr(ctx)
			}
			break
		}
		solution, err := decodeSolution(tree, steps, res, report, opts, root)
		if err != nil {
			return out, err
		}
		recordAnalysisMetrics(opts.Metrics, solution, report)
		if solution.Probability < minProb {
			break // everything after ranks lower still
		}
		out = append(out, solution)
		if res.Status == maxsat.Feasible {
			// Anytime round: not proven maximal, so stop before the
			// descending-order contract is violated.
			break
		}
		block := make([]cnf.Lit, 0, len(solution.MPMCS))
		for _, e := range solution.MPMCS {
			block = append(block, cnf.Lit(steps.Encoding.VarOf[e.ID]))
		}
		if len(block) == 0 {
			break
		}
		instance.AddHard(block...)
	}
	return out, nil
}
