package core

import (
	"context"
	"fmt"
	"time"

	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/maxsat"
)

// AnalyzeTopK returns up to k minimal cut sets in descending
// probability order, starting with the MPMCS. Each round re-solves the
// MaxSAT instance with a blocking clause requiring at least one event
// of every previously reported cut set to survive, which excludes that
// set and all its supersets — exactly the fault-prioritisation workflow
// the paper motivates.
//
// When the deadline expires before the first round produces anything,
// the error wraps ErrNoAnswer (and the context's error), never
// ErrNoCutSet: a timeout is not an infeasibility proof. A deadline
// that strikes after some rounds completed returns those rounds.
func AnalyzeTopK(ctx context.Context, tree *ft.Tree, k int, opts Options) ([]*Solution, error) {
	out, _, err := AnalyzeTopKComplete(ctx, tree, k, opts)
	return out, err
}

// AnalyzeTopKComplete is AnalyzeTopK plus an exactness verdict:
// complete is true only when every returned solution is proven OPTIMAL
// and the enumeration itself is exhaustive — either k sets were
// produced, or the solver proved no further cut set exists. A deadline
// truncation (fewer than k sets without an infeasibility proof, or a
// FEASIBLE final round) reports complete=false, which is the signal a
// result cache needs: only complete enumerations may be reused.
func AnalyzeTopKComplete(ctx context.Context, tree *ft.Tree, k int, opts Options) (out []*Solution, complete bool, err error) {
	opts = opts.withDefaults()
	if k < 1 {
		return nil, false, fmt.Errorf("core: k must be positive, got %d", k)
	}
	if k == 1 {
		// A top-1 query is exactly Analyze, which can exploit modular
		// decomposition; enumeration beyond the first set needs global
		// blocking clauses and stays monolithic.
		if plan := decompositionPlan(tree, opts); plan != nil {
			solution, err := Analyze(ctx, tree, opts)
			if err != nil {
				return nil, false, err
			}
			return []*Solution{solution}, solution.Status == maxsat.Optimal.String(), nil
		}
	}
	ctx, cancel := opts.withTimeout(ctx)
	defer cancel()
	root := opts.tracer().StartSpan("analyze-topk")
	defer root.End()
	if root.Recording() {
		root.SetString("tree", tree.Name())
		root.SetInt("k", int64(k))
	}
	steps, err := buildSteps(tree, opts, root)
	if err != nil {
		return nil, false, err
	}
	instance := steps.Instance.Clone()

	complete = true // until a deadline truncation proves otherwise
	for round := 0; round < k; round++ {
		start := time.Now()
		res, report, err := solveSpanned(ctx, instance, opts, root)
		if err != nil {
			return out, false, err
		}
		if res.Status == maxsat.Infeasible {
			if round == 0 {
				// No cut set at all: a genuine infeasibility proof, not
				// a budget artefact.
				return nil, true, ErrNoCutSet
			}
			break // all cut sets enumerated
		}
		if res.Status == maxsat.Unknown {
			// Deadline with nothing to report this round: keep earlier
			// rounds, but the enumeration is truncated, and an empty
			// result is "no answer", never "no cut set".
			complete = false
			if round == 0 {
				return nil, false, noAnswerErr(ctx)
			}
			break
		}
		solution, err := decodeSolution(tree, steps, res, report, opts, root)
		if err != nil {
			return out, false, err
		}
		solution.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
		recordAnalysisMetrics(opts.Metrics, solution, report)
		out = append(out, solution)
		if res.Status == maxsat.Feasible {
			// An anytime round is not proven maximal, so later rounds
			// could rank out of order: report it and stop enumerating.
			complete = false
			break
		}

		// Block this cut set and all supersets: at least one member
		// event must not fail (yᵢ true).
		block := make([]cnf.Lit, 0, len(solution.MPMCS))
		for _, e := range solution.MPMCS {
			block = append(block, cnf.Lit(steps.Encoding.VarOf[e.ID]))
		}
		if len(block) == 0 {
			// The empty cut set (top event unconditionally true) has no
			// supersets to block; enumeration is complete.
			break
		}
		instance.AddHard(block...)
	}
	return out, complete, nil
}
