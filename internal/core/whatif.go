package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/ft"
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
	start := time.Now()
	working := a.tree.Clone()
	for id, p := range overrides {
		if err := working.SetProb(id, p); err != nil {
			return nil, err
		}
	}
	weights := LogWeights(working.Events(), DefaultScale)
	steps := &Steps{Encoding: a.enc, Weights: weights, Instance: WPMSInstance(a.enc, weights)}

	ctx, cancel := a.opts.withTimeout(ctx)
	defer cancel()
	root := a.opts.tracer().StartSpan("analyze-whatif")
	defer root.End()
	return solveOnce(ctx, working, steps, a.opts, root, start)
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
// built on the same blocking-clause loop. A tree with no cut set at all
// is ErrNoCutSet; an empty result with a nil error means no cut set
// reaches minProb. When the deadline cuts the enumeration short before
// it settles whether any set reaches minProb, the error wraps
// ErrNoAnswer.
func AnalyzeAbove(ctx context.Context, tree *ft.Tree, minProb float64, opts Options) ([]*Solution, error) {
	if minProb <= 0 || math.IsNaN(minProb) {
		return nil, fmt.Errorf("core: minProb must be in (0,1], got %v", minProb)
	}
	out, _, err := enumerate(ctx, tree, ranking{span: "analyze-above", minProb: minProb}, opts)
	return out, err
}
