package maxsat

import (
	"context"
	"fmt"
	"time"

	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/obs"
	"mpmcs4fta/internal/sat"
)

// LinearSU is the model-improving ("linear SAT-UNSAT") engine: solve,
// measure the model's cost, constrain the search to cost-1, repeat until
// UNSAT; the last model is optimal. The cost constraint is the CDCL
// solver's native pseudo-Boolean budget, so no cardinality network is
// encoded regardless of weight magnitudes.
//
// Run cooperatively (SolveWithProgress), the engine publishes every
// improving model and tightens its budget from the global incumbent —
// a sibling's better model shrinks this engine's search space between
// restarts via sat.SetBudgetRefresh.
type LinearSU struct{}

var _ ProgressSolver = (*LinearSU)(nil)

// Name implements Solver.
func (l *LinearSU) Name() string { return "linear-su" }

// Solve implements Solver.
func (l *LinearSU) Solve(ctx context.Context, inst *cnf.WCNF) (Result, error) {
	return l.SolveWithProgress(ctx, inst, nil)
}

// SolveWithProgress implements ProgressSolver.
func (l *LinearSU) SolveWithProgress(ctx context.Context, inst *cnf.WCNF, prog Progress) (Result, error) {
	if err := inst.Validate(); err != nil {
		return Result{}, fmt.Errorf("maxsat: %w", err)
	}
	var stats obs.SolverStats
	s := sat.New(inst.NumVars)
	satSecs := liveTelemetry(ctx, &stats, l.Name(), s)
	for _, c := range inst.Hard {
		if !s.AddClause(c...) {
			return Result{Status: Infeasible}, nil
		}
	}

	// Attach one budget literal per soft clause: the negation of a unit
	// soft's literal directly, or a fresh relaxation variable appended
	// to longer clauses. A true budget literal *permits* falsifying the
	// soft clause; the model's true cost is measured against the
	// original instance each iteration.
	weightOf := make(map[cnf.Lit]int64, len(inst.Soft))
	var (
		order []cnf.Lit // budget literals in first-use order
		total int64
	)
	for _, soft := range inst.Soft {
		sum, okAdd := cnf.AddWeights(total, soft.Weight)
		if !okAdd {
			return Result{}, fmt.Errorf("maxsat: total soft weight overflows int64")
		}
		total = sum
		var budgetLit cnf.Lit
		if len(soft.Clause) == 1 {
			// Duplicate unit softs merge into one budget literal with
			// summed weight.
			budgetLit = soft.Clause[0].Neg()
		} else {
			r := cnf.Lit(s.AddVars(1))
			relaxed := append(append(cnf.Clause{}, soft.Clause...), r)
			if !s.AddClause(relaxed...) {
				return Result{Status: Infeasible}, nil
			}
			budgetLit = r
		}
		if _, seen := weightOf[budgetLit]; !seen {
			order = append(order, budgetLit)
		}
		//lint:ignore weightsafe merged unit-soft weights sum to the Validate-bounded total computed above
		weightOf[budgetLit] += soft.Weight
	}
	budgetLits := make([]cnf.Lit, len(order))
	weights := make([]int64, len(order))
	for i, l := range order {
		budgetLits[i] = l
		weights[i] = weightOf[l]
	}
	if err := s.SetBudget(budgetLits, weights, total); err != nil {
		return Result{}, fmt.Errorf("maxsat: install budget: %w", err)
	}

	// curBound mirrors the solver's budget bound exactly: both the
	// engine's own SetBudgetBound calls and the cooperative refresh
	// callback below update it in lockstep (the callback runs on this
	// goroutine, inside s.Solve, between restarts). Tracking it matters
	// for soundness: an UNSAT answer proves optimum ≥ curBound+1, and
	// when cooperation tightened curBound below the engine's own best,
	// that UNSAT no longer proves the engine's own model optimal.
	curBound := total
	if prog != nil {
		s.SetBudgetRefresh(func() (int64, bool) {
			global, ok := prog.BestKnown()
			if !ok {
				return 0, false
			}
			if nb := global - 1; nb < curBound {
				curBound = nb
				return nb, true
			}
			return 0, false
		})
	}

	var (
		best        []bool
		bestCost    int64 = -1
		interrupted       = func(err error) (Result, error) {
			if best == nil {
				return Result{Stats: stats}, err
			}
			// Anytime answer: the incumbent is feasible; the engine has
			// proven no lower bound of its own (that requires an UNSAT).
			return verifyResult(inst, Result{Status: Feasible, Model: best, Cost: bestCost, Stats: stats})
		}
	)
	for {
		if err := ctx.Err(); err != nil {
			return interrupted(fmt.Errorf("%w: %w", sat.ErrInterrupted, err))
		}
		var callStart time.Time
		if satSecs != nil {
			callStart = time.Now()
		}
		status, err := s.Solve(ctx)
		if satSecs != nil {
			satSecs.Observe(time.Since(callStart).Seconds())
		}
		addSATCall(&stats, s.ResetStats())
		if err != nil {
			return interrupted(err)
		}
		if status != sat.Sat {
			break
		}
		model := truncateModel(s.Model(), inst.NumVars)
		cost, err := inst.Cost(model)
		if err != nil {
			return Result{Stats: stats}, fmt.Errorf("maxsat: inconsistent model: %w", err)
		}
		if bestCost < 0 || cost < bestCost {
			best, bestCost = model, cost
			if prog != nil {
				prog.PublishModel(cost, model)
			}
		}
		// Model-improving search: each SAT answer tightens the upper
		// bound; the lower bound stays 0 until UNSAT proves optimality.
		stats.RecordBound(stats.SATCalls, 0, cost)
		if cost == 0 {
			break
		}
		// cost ≤ budget sum ≤ curBound, so this always strictly lowers
		// the bound even after a cooperative refresh.
		if err := s.SetBudgetBound(cost - 1); err != nil {
			return Result{Stats: stats}, fmt.Errorf("maxsat: tighten bound: %w", err)
		}
		curBound = cost - 1
	}
	if bestCost == 0 {
		stats.RecordBound(stats.SATCalls, 0, 0)
		return verifyResult(inst, Result{Status: Optimal, Model: best, Cost: 0, Stats: stats})
	}
	// UNSAT at bound curBound proves optimum ≥ curBound+1.
	if bestCost < 0 {
		if curBound == total {
			// The hard clauses alone are unsatisfiable: with the budget
			// at the full soft weight, every hard-feasible assignment
			// fits.
			return Result{Status: Infeasible, Stats: stats}, nil
		}
		// Cooperation tightened the bound before this engine found any
		// model: the instance may still be feasible (a sibling's model
		// caused the tightening), so only the lower bound is proven.
		lb := curBound + 1
		if prog != nil {
			prog.PublishLower(lb)
		}
		stats.RecordBound(stats.SATCalls, lb, -1)
		return Result{Status: Unknown, LowerBound: lb, Stats: stats}, nil
	}
	lb := curBound + 1
	if prog != nil {
		prog.PublishLower(lb)
	}
	if bestCost <= lb {
		stats.RecordBound(stats.SATCalls, bestCost, bestCost)
		return verifyResult(inst, Result{Status: Optimal, Model: best, Cost: bestCost, Stats: stats})
	}
	// A sibling's better incumbent drove the bound below this engine's
	// own best, so the UNSAT only proves optimum ∈ [lb, global best]:
	// the engine's model is feasible but not proven optimal.
	stats.RecordBound(stats.SATCalls, lb, bestCost)
	return verifyResult(inst, Result{Status: Feasible, Model: best, Cost: bestCost, LowerBound: lb, Stats: stats})
}
