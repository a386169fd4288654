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
	if k < 1 {
		return nil, false, fmt.Errorf("core: k must be positive, got %d", k)
	}
	return enumerate(ctx, tree, ranking{span: "analyze-topk", k: k}, opts)
}

// ranking describes one ranked enumeration over the Step-4 instance.
type ranking struct {
	span string // name of the root span
	k    int    // round limit; 0 = unbounded
	// minProb ends the enumeration at the first cut set less probable
	// than it (0 = no threshold).
	minProb float64
	// disjoint excludes every member of a reported set outright (a hard
	// unit yᵢ each), instead of blocking the set and its supersets with
	// one clause.
	disjoint bool
}

// enumerate is the blocking-clause loop behind every ranked query
// (AnalyzeTopK, AnalyzeAbove, AnalyzeDisjoint): Steps 1–4 run once,
// then each round solves the instance, decodes the answer, and blocks
// it before the next round. complete reports that every returned
// solution is OPTIMAL and the enumeration stopped for a proven reason
// (round limit, threshold, or no further cut set) rather than a
// deadline or an anytime answer.
func enumerate(ctx context.Context, tree *ft.Tree, q ranking, opts Options) (out []*Solution, complete bool, err error) {
	opts = opts.withDefaults()
	ctx, cancel := opts.withTimeout(ctx)
	defer cancel()
	root := opts.tracer().StartSpan(q.span)
	defer root.End()
	if root.Recording() {
		root.SetString("tree", tree.Name())
		root.SetInt("k", int64(q.k))
	}
	steps, err := buildSteps(tree, opts, root)
	if err != nil {
		return nil, false, err
	}
	instance := steps.Instance.Clone()

	// truncated ends a round that leaves the enumeration unproven: keep
	// earlier rounds, and an empty result is "no answer", never "no cut
	// set" or "nothing above the threshold".
	truncated := func() ([]*Solution, bool, error) {
		if len(out) == 0 {
			return nil, false, noAnswerErr(ctx)
		}
		return out, false, nil
	}
	for q.k == 0 || len(out) < q.k {
		start := time.Now()
		res, report, err := solveSpanned(ctx, instance, opts, root)
		if err != nil {
			return out, false, err
		}
		switch res.Status {
		case maxsat.Infeasible:
			if len(out) == 0 {
				// No cut set at all: a genuine infeasibility proof, not
				// a budget artefact.
				return nil, true, ErrNoCutSet
			}
			return out, true, nil // all cut sets enumerated
		case maxsat.Unknown:
			return truncated() // deadline with nothing to report this round
		}
		solution, err := decodeSolution(tree, steps, res, report, opts, root, start)
		if err != nil {
			return out, false, err
		}
		anytime := res.Status == maxsat.Feasible
		if solution.Probability < q.minProb {
			if anytime && solution.ProbabilityUpperBound >= q.minProb {
				// An anytime set below the threshold does not prove
				// that nothing above it remains.
				return truncated()
			}
			return out, true, nil // everything after ranks lower still
		}
		out = append(out, solution)
		if anytime {
			// An anytime round is not proven maximal, so later rounds
			// could rank out of order: report it and stop enumerating.
			return out, false, nil
		}
		if len(solution.MPMCS) == 0 {
			// The empty cut set (top event unconditionally true) has no
			// supersets to block; enumeration is complete.
			return out, true, nil
		}
		block := make([]cnf.Lit, len(solution.MPMCS))
		for i, e := range solution.MPMCS {
			// yᵢ true: the member event does not fail.
			block[i] = cnf.Lit(steps.Encoding.VarOf[e.ID])
		}
		if q.disjoint {
			for _, y := range block {
				instance.AddHard(y)
			}
		} else {
			// At least one member survives: excludes this cut set and
			// all its supersets.
			instance.AddHard(block...)
		}
	}
	return out, true, nil
}
