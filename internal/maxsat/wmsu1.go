package maxsat

import (
	"context"
	"fmt"
	"time"

	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/obs"
	"mpmcs4fta/internal/sat"
)

// WMSU1 is the core-guided Fu&Malik engine generalised to weights
// (WPM1, Ansótegui-Bonet-Levy): solve under assumptions that all soft
// clauses hold; on UNSAT, extract a core, pay its minimum weight,
// relax each core clause with a fresh variable (splitting clauses whose
// weight exceeds the minimum), add an exactly-one constraint over the
// fresh variables, and iterate until SAT. The accumulated payments are
// the optimal cost.
//
// The engine shines exactly where the MPMCS problem lives: optima that
// falsify few soft clauses, found after a handful of small cores.
//
// Run cooperatively (SolveWithProgress), the engine publishes its
// accumulated core payments as a global lower bound — each WPM1
// transformation preserves the instance's optimum minus the payment,
// so the running total is a sound lower bound at every step — and the
// feasible models it finds at intermediate strata as incumbents.
type WMSU1 struct {
	// Stratified enables weight stratification: soft clauses are
	// activated stratum by stratum from the heaviest weight down, so
	// early cores concentrate on the literals that matter most — often
	// far fewer and smaller cores on instances with wide weight ranges
	// like the −log transform produces.
	Stratified bool
}

var _ ProgressSolver = (*WMSU1)(nil)

// Name implements Solver.
func (w *WMSU1) Name() string {
	if w.Stratified {
		return "wmsu1-strat"
	}
	return "wmsu1"
}

// wmsu1Soft is a live soft clause: its accumulated literals (original
// clause plus relaxation variables) and the selector that activates it.
type wmsu1Soft struct {
	lits     cnf.Clause // original literals plus relaxation variables
	weight   int64
	selector cnf.Lit // assuming ¬selector enforces the clause
}

// Solve implements Solver.
func (w *WMSU1) Solve(ctx context.Context, inst *cnf.WCNF) (Result, error) {
	return w.SolveWithProgress(ctx, inst, nil)
}

// SolveWithProgress implements ProgressSolver.
func (w *WMSU1) SolveWithProgress(ctx context.Context, inst *cnf.WCNF, prog Progress) (Result, error) {
	if err := inst.Validate(); err != nil {
		return Result{}, fmt.Errorf("maxsat: %w", err)
	}
	s := sat.New(inst.NumVars)
	for _, c := range inst.Hard {
		if !s.AddClause(c...) {
			return Result{Status: Infeasible}, nil
		}
	}

	softs := make([]wmsu1Soft, 0, len(inst.Soft))
	for _, soft := range inst.Soft {
		sel := cnf.Lit(s.AddVars(1))
		clause := append(append(cnf.Clause{}, soft.Clause...), sel)
		if !s.AddClause(clause...) {
			return Result{Status: Infeasible}, nil
		}
		softs = append(softs, wmsu1Soft{
			lits:     append(cnf.Clause{}, soft.Clause...),
			weight:   soft.Weight,
			selector: sel,
		})
	}

	// threshold selects the active stratum: only softs with weight ≥
	// threshold are enforced via assumptions. Without stratification
	// every soft is active from the start.
	var threshold int64 = 1
	if w.Stratified {
		for _, soft := range softs {
			if soft.weight > threshold {
				threshold = soft.weight
			}
		}
	}

	var (
		cost     int64 // accumulated core payments: a proven lower bound
		best     []bool
		bestCost int64 = -1
		stats    obs.SolverStats
	)
	satSecs := liveTelemetry(ctx, &stats, w.Name(), s)
	// interrupted preserves whatever the engine has proven so far: the
	// stratified loop's intermediate models become a Feasible answer,
	// and the accumulated core payments ride along as the lower bound
	// even when no model exists yet.
	interrupted := func(err error) (Result, error) {
		if best != nil {
			return verifyResult(inst, Result{Status: Feasible, Model: best, Cost: bestCost, LowerBound: cost, Stats: stats})
		}
		return Result{LowerBound: cost, Stats: stats}, err
	}
	for {
		if err := ctx.Err(); err != nil {
			return interrupted(fmt.Errorf("%w: %w", sat.ErrInterrupted, err))
		}
		assumps := make([]cnf.Lit, 0, len(softs))
		selToIdx := make(map[cnf.Lit]int, len(softs))
		for i, soft := range softs {
			if soft.weight < threshold {
				continue
			}
			assumps = append(assumps, soft.selector.Neg())
			selToIdx[soft.selector] = i
		}
		var callStart time.Time
		if satSecs != nil {
			callStart = time.Now()
		}
		status, err := s.Solve(ctx, assumps...)
		if satSecs != nil {
			satSecs.Observe(time.Since(callStart).Seconds())
		}
		addSATCall(&stats, s.ResetStats())
		if err != nil {
			return interrupted(err)
		}
		if status == sat.Sat {
			// Lower the threshold geometrically (but never past the
			// heaviest still-inactive weight, so progress is
			// guaranteed); −log weights are almost all distinct, so
			// stepping stratum-by-stratum would cost one SAT call per
			// weight. When nothing is inactive the model is optimal.
			var maxInactive int64
			for _, soft := range softs {
				if soft.weight < threshold && soft.weight > maxInactive {
					maxInactive = soft.weight
				}
			}
			model := truncateModel(s.Model(), inst.NumVars)
			if maxInactive == 0 {
				stats.RecordBound(stats.SATCalls, cost, cost)
				return verifyResult(inst, Result{Status: Optimal, Model: model, Cost: cost, Stats: stats})
			}
			// Intermediate stratum model: it satisfies the hard clauses,
			// so its true cost against the original instance is a valid
			// upper bound — the engine's anytime incumbent.
			if ub, err := inst.Cost(model); err == nil && (bestCost < 0 || ub < bestCost) {
				best, bestCost = model, ub
				stats.RecordBound(stats.SATCalls, cost, ub)
				if prog != nil {
					prog.PublishModel(ub, model)
				}
			}
			threshold = threshold / 8
			if threshold > maxInactive {
				threshold = maxInactive
			}
			if threshold < 1 {
				threshold = 1
			}
			continue
		}

		core := s.Core() // literals of the form ¬selector
		coreIdx := make([]int, 0, len(core))
		for _, l := range core {
			if idx, ok := selToIdx[l.Neg()]; ok {
				coreIdx = append(coreIdx, idx)
			}
		}
		if len(coreIdx) == 0 {
			// The hard clauses alone are unsatisfiable.
			return Result{Status: Infeasible, Stats: stats}, nil
		}

		wmin := softs[coreIdx[0]].weight
		for _, idx := range coreIdx[1:] {
			if softs[idx].weight < wmin {
				wmin = softs[idx].weight
			}
		}
		newCost, okAdd := cnf.AddWeights(cost, wmin)
		if !okAdd {
			return Result{Stats: stats}, fmt.Errorf("maxsat: core-payment lower bound overflows int64")
		}
		cost = newCost
		// Core-guided search: each core payment raises the proven lower
		// bound; the upper bound is the best intermediate model if any.
		stats.RecordBound(stats.SATCalls, cost, bestCost)
		if prog != nil {
			prog.PublishLower(cost)
		}

		// Relax every core clause: C ∨ r ∨ sel' replaces it at weight
		// wmin; the weight remainder keeps the existing clause and
		// selector. Exactly one of the fresh r variables must be true.
		inCore := make(map[int]bool, len(coreIdx))
		for _, idx := range coreIdx {
			inCore[idx] = true
		}
		next := make([]wmsu1Soft, 0, len(softs)+len(coreIdx))
		relaxVars := make([]cnf.Lit, 0, len(coreIdx))
		for idx, soft := range softs {
			if !inCore[idx] {
				next = append(next, soft)
				continue
			}
			r := cnf.Lit(s.AddVars(1))
			sel := cnf.Lit(s.AddVars(1))
			relaxVars = append(relaxVars, r)
			relaxed := append(append(cnf.Clause{}, soft.lits...), r)
			withSel := append(append(cnf.Clause{}, relaxed...), sel)
			if !s.AddClause(withSel...) {
				return Result{Status: Infeasible}, nil
			}
			next = append(next, wmsu1Soft{lits: relaxed, weight: wmin, selector: sel})
			if soft.weight > wmin {
				// Weight split: the original clause and selector live
				// on with the remaining weight.
				next = append(next, wmsu1Soft{lits: soft.lits, weight: soft.weight - wmin, selector: soft.selector})
			}
		}
		softs = next
		addExactlyOne(s, relaxVars)
	}
}

// addExactlyOne encodes Σ lits = 1 with an at-least-one clause and a
// sequential (ladder) at-most-one encoding: 3(n-1) clauses, n-1 aux
// variables.
func addExactlyOne(s *sat.Solver, lits []cnf.Lit) {
	s.AddClause(lits...)
	if len(lits) <= 1 {
		return
	}
	// Ladder: a_i means "some lit among lits[0..i] is true".
	prev := lits[0]
	for i := 1; i < len(lits); i++ {
		if i < len(lits)-1 {
			a := cnf.Lit(s.AddVars(1))
			s.AddClause(prev.Neg(), a)             // carry: prev true → a true
			s.AddClause(lits[i].Neg(), a)          // current true → a true
			s.AddClause(prev.Neg(), lits[i].Neg()) // prev and current not both
			prev = a
			continue
		}
		s.AddClause(prev.Neg(), lits[i].Neg())
	}
}
