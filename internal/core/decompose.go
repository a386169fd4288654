package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"mpmcs4fta/internal/decomp"
	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/maxsat"
	"mpmcs4fta/internal/obs"
	"mpmcs4fta/internal/portfolio"
)

// decompositionPlan returns the non-trivial plan Analyze should route
// through, or nil for the monolithic path. Planning failures fall back
// silently: whatever made the tree unplannable (it is validated first,
// so in practice nothing) will surface through the monolithic
// pipeline's own validation.
func decompositionPlan(tree *ft.Tree, opts Options) *decomp.Plan {
	if opts.NoDecompose {
		return nil
	}
	plan, err := decomp.BuildPlan(tree, decomp.Options{MinEvents: opts.DecomposeMinEvents})
	if err != nil || plan.Trivial() {
		return nil
	}
	return plan
}

// analyzeDecomposed is the modular counterpart of the monolithic
// solve-then-decode path in Analyze: each plan node runs the full
// Steps-1–6 pipeline over its quotient tree (its own portfolio race,
// with the bus and metrics riding the context as usual), scheduled
// bottom-up over a shared worker pool, and the module optima are
// recombined into one Solution over the original tree. It also returns
// the portfolio report of every module race that produced a model.
func analyzeDecomposed(ctx context.Context, tree *ft.Tree, plan *decomp.Plan, opts Options, parent obs.SpanStarter) (*Solution, []portfolio.Report, error) {
	sp := parent.StartSpan("decompose")
	defer sp.End()
	if sp.Recording() {
		sp.SetInt("modules", int64(len(plan.Nodes)))
	}

	var (
		racesMu sync.Mutex
		races   []portfolio.Report
	)
	solveNode := func(nodeCtx context.Context, node *decomp.PlanNode) (decomp.ModuleSolution, error) {
		msp := sp.StartSpan("module")
		defer msp.End()
		if msp.Recording() {
			msp.SetString("module", node.ID)
			msp.SetInt("events", int64(node.Events))
		}
		steps, err := buildSteps(node.Tree, opts, msp)
		if err != nil {
			return decomp.ModuleSolution{}, err
		}
		res, report, err := solveSpanned(nodeCtx, steps.Instance, opts, msp)
		if err != nil {
			return decomp.ModuleSolution{}, err
		}
		sol := decomp.ModuleSolution{
			Winner:      report.Winner,
			Vars:        steps.Instance.NumVars,
			HardClauses: len(steps.Instance.Hard),
			SoftClauses: len(steps.Instance.Soft),
		}
		if win := report.WinnerReport(); win != nil {
			sol.Stats = win.Stats
		}
		switch res.Status {
		case maxsat.Infeasible:
			// This module's top can never occur: it re-enters the parent
			// as a p=0 pseudo-event (which LogWeights turns into a hard
			// "cannot fail" constraint).
			sol.Impossible = true
			return sol, nil
		case maxsat.Optimal, maxsat.Feasible:
		default:
			return sol, fmt.Errorf("core: module %q: %w", node.ID, noAnswerErr(nodeCtx))
		}

		racesMu.Lock()
		races = append(races, report)
		racesMu.Unlock()
		sol.CutSet = modelCutSet(node.Tree, steps, res.Model)
		sol.Probability = 1
		for _, id := range sol.CutSet {
			sol.Probability *= node.Tree.Event(id).Prob
		}
		sol.Optimal = res.Status == maxsat.Optimal
		if res.Status == maxsat.Feasible {
			if gap := res.Gap(); gap > 0 {
				sol.GapLog = float64(gap) / DefaultScale
			}
		}
		return sol, nil
	}

	outcome, err := decomp.Execute(ctx, plan, solveNode, decomp.ExecOptions{Bus: opts.Bus})
	if err != nil {
		if !errors.Is(err, ErrNoAnswer) && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
			// The plan stopped on the dead context: a module was
			// refused at submit or dequeued after expiry. That is a
			// deadline with no answer, not an internal failure.
			err = fmt.Errorf("%w (%w)", ErrNoAnswer, err)
		}
		return nil, nil, err
	}
	if outcome.Impossible {
		return nil, nil, ErrNoCutSet
	}
	solution, err := composeSolution(tree, plan, outcome)
	return solution, races, err
}

// composeSolution performs the decomposed Step 6: the expanded cut set
// is re-weighted against the original tree's Table-I transform, module
// instance sizes and solver counters are aggregated, and the composed
// optimality verdict (all-modules-optimal, summed gap) is translated
// to the same Status/gap fields the monolithic path reports.
func composeSolution(tree *ft.Tree, plan *decomp.Plan, outcome *decomp.Outcome) (*Solution, error) {
	solution, err := newSolution(tree, LogWeights(tree.Events(), DefaultScale), outcome.CutSet, maxsatMethod)
	if err != nil {
		return nil, err
	}
	solution.Solver = outcome.Solutions[plan.Root].Winner
	for _, id := range plan.Order {
		sol, ok := outcome.Solutions[id]
		if !ok {
			continue
		}
		solution.Stats.Vars += sol.Vars
		solution.Stats.HardClauses += sol.HardClauses
		solution.Stats.SoftClauses += sol.SoftClauses
		solution.Stats.Solver.Add(sol.Stats)
	}
	if !outcome.Optimal {
		solution.Status = maxsat.Feasible.String()
		solution.OptimalityGap = outcome.GapLog
		// No cut set costs less than (achieved − composed gap), so none
		// is more probable than exp(−(LogCost − gap)).
		solution.ProbabilityUpperBound = math.Exp(-(solution.LogCost - outcome.GapLog))
	}
	return solution, nil
}
