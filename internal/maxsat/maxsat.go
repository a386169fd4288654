// Package maxsat provides Weighted Partial MaxSAT solvers over
// cnf.WCNF instances — the oracle required by Step 4 of the paper's
// pipeline. Three engines with genuinely different algorithms are
// implemented, which is what makes the Step-5 parallel portfolio
// worthwhile:
//
//   - LinearSU: model-improving linear search SAT→UNSAT, using the CDCL
//     solver's native pseudo-Boolean budget propagator for the bound.
//   - WMSU1: core-guided Fu&Malik with weight splitting (WPM1) and
//     geometric weight stratification.
//   - BranchBound: dedicated branch-and-bound over the instance
//     variables. Unit propagation keeps per-literal occurrence lists
//     and per-clause counts of true and false literals, so an
//     assignment costs its occurrences, not a rescan; the falsified
//     soft weight that bounds the search is a running sum.
//
// All engines are deterministic for a fixed instance and configuration.
package maxsat

import (
	"context"
	"fmt"

	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/obs"
	"mpmcs4fta/internal/sat"
)

// Status is the outcome of a MaxSAT solve.
type Status int

// Solve outcomes.
const (
	// Unknown means the search was interrupted before completion.
	Unknown Status = iota
	// Optimal means Model is a minimum-cost assignment.
	Optimal
	// Infeasible means the hard clauses are unsatisfiable.
	Infeasible
	// Feasible means Model satisfies the hard clauses but the search
	// ended (deadline, cancellation) before optimality was proven: Cost
	// is an upper bound on the optimum and LowerBound a proven lower
	// bound — the anytime answer.
	Feasible
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "OPTIMAL"
	case Infeasible:
		return "INFEASIBLE"
	case Feasible:
		return "FEASIBLE"
	default:
		return "UNKNOWN"
	}
}

// Definitive reports whether the status settles the instance: either an
// optimal model or a proof that none exists. Feasible and Unknown are
// partial answers an anytime caller may still use.
func (s Status) Definitive() bool { return s == Optimal || s == Infeasible }

// Result is the outcome of a MaxSAT solve call.
type Result struct {
	Status Status
	// Model is an assignment indexed by DIMACS variable (index 0
	// unused): minimum-cost when Status is Optimal, the best incumbent
	// found when Status is Feasible.
	Model []bool
	// Cost is the total weight of falsified soft clauses under Model.
	Cost int64
	// LowerBound is the best proven lower bound on the optimum: equal
	// to Cost when Status is Optimal, possibly smaller when Feasible
	// (the optimality gap), and meaningful even without a model when
	// Status is Unknown (e.g. core-guided progress before the first
	// model).
	LowerBound int64
	// Stats reports the engine's work counters and cost-bound
	// trajectory. It is populated on every return path — including
	// errors and interruption — so the portfolio can report what each
	// member did even when it lost the race.
	Stats obs.SolverStats
}

// Gap returns the optimality gap Cost − LowerBound for results carrying
// a model (Optimal: always 0; Feasible: how far the incumbent may be
// from the optimum), and −1 otherwise.
func (r Result) Gap() int64 {
	switch r.Status {
	case Optimal, Feasible:
		return r.Cost - r.LowerBound
	default:
		return -1
	}
}

// Solver is a Weighted Partial MaxSAT engine. Implementations must not
// mutate the instance and must be safe to run concurrently with other
// Solver instances (each Solve call builds its own state).
type Solver interface {
	// Name identifies the engine (for portfolio reports).
	Name() string
	// Solve computes a minimum-cost model of the instance. When the
	// context expires mid-search, engines holding a feasible incumbent
	// return it with Status Feasible (and a nil error); engines with
	// nothing to report return an error wrapping sat.ErrInterrupted
	// (any proven lower bound still rides along in Result.LowerBound).
	Solve(ctx context.Context, inst *cnf.WCNF) (Result, error)
}

// Progress is the cooperative bound channel between an engine and a
// portfolio bound manager. Engines call PublishModel/PublishLower as
// they improve their incumbent or proven lower bound, and read
// BestKnown to tighten their own search against the global incumbent.
// Implementations must be safe for concurrent use by multiple engines.
type Progress interface {
	// PublishModel reports a feasible model and its (verified) cost.
	// The cost becomes the global incumbent bound if it improves it.
	// The model must not be mutated after publication.
	PublishModel(cost int64, model []bool)
	// PublishLower reports a proven lower bound on the optimum.
	PublishLower(lb int64)
	// BestKnown returns the global incumbent cost; ok is false while no
	// model has been published.
	BestKnown() (cost int64, ok bool)
	// ProvenLower returns the best global proven lower bound (0 when
	// none has been published).
	ProvenLower() int64
}

// ProgressSolver is the optional extension interface for engines that
// cooperate through a shared bound manager. Solve is equivalent to
// SolveWithProgress with a nil Progress.
type ProgressSolver interface {
	Solver
	// SolveWithProgress runs the engine with a cooperative bound
	// channel; prog may be nil, in which case the engine runs
	// standalone exactly like Solve.
	SolveWithProgress(ctx context.Context, inst *cnf.WCNF, prog Progress) (Result, error)
}

// verifyResult recomputes the model cost against the original instance;
// engines call it before returning so that a disagreement between the
// engine's bookkeeping and the actual instance surfaces as an error
// instead of a wrong answer. It also normalises LowerBound: Optimal
// results get LowerBound = Cost, Feasible results are clamped to
// LowerBound ≤ Cost.
func verifyResult(inst *cnf.WCNF, res Result) (Result, error) {
	if res.Status != Optimal && res.Status != Feasible {
		return res, nil
	}
	cost, err := inst.Cost(res.Model)
	if err != nil {
		return Result{}, fmt.Errorf("maxsat: model verification failed: %w", err)
	}
	if cost != res.Cost {
		return Result{}, fmt.Errorf("maxsat: engine reported cost %d but model costs %d", res.Cost, cost)
	}
	if res.Status == Optimal {
		res.LowerBound = res.Cost
	} else if res.LowerBound > res.Cost {
		res.LowerBound = res.Cost
	}
	return res, nil
}

// Registry names of the live solver distributions engines record when
// an obs.Metrics travels in the context (obs.ContextWithMetrics).
const (
	// MetricSATCallSeconds is the per-SAT-call latency histogram.
	MetricSATCallSeconds = "solver.sat_call_seconds"
	// MetricLearntLength is the learnt conflict-clause length histogram.
	MetricLearntLength = "solver.learnt_clause_length"
	// MetricTrailDepth is the assignment-trail depth histogram, sampled
	// at solver heartbeats.
	MetricTrailDepth = "solver.trail_depth"
)

// liveTelemetry resolves the context's live-instrumentation plumbing
// once per engine run: it names the stats trajectory, installs solver
// telemetry (bus heartbeats and restart events plus hot-path
// histograms) on the SAT solver when one is given, and returns the
// per-SAT-call latency histogram — nil when metrics are disabled,
// which Histogram.Observe tolerates, but callers should skip the
// time.Now pair on nil to keep the disabled path free.
func liveTelemetry(ctx context.Context, stats *obs.SolverStats, engine string, s *sat.Solver) (satSecs *obs.Histogram) {
	if n := obs.EngineNameFromContext(ctx); n != "" {
		engine = n
	}
	stats.Start(engine)
	bus := obs.BusFromContext(ctx)
	m := obs.MetricsFromContext(ctx)
	if s != nil && (bus.Enabled() || m != nil) {
		s.SetTelemetry(&sat.Telemetry{
			Bus:        bus,
			Engine:     engine,
			LearntLen:  m.Histogram(MetricLearntLength, obs.LengthBuckets),
			TrailDepth: m.Histogram(MetricTrailDepth, obs.DepthBuckets),
		})
	}
	return m.Histogram(MetricSATCallSeconds, obs.DurationBuckets)
}

// addSATCall folds one SAT call's counter snapshot into the engine's
// running statistics.
func addSATCall(dst *obs.SolverStats, d sat.Stats) {
	dst.SATCalls++
	dst.Conflicts += d.Conflicts
	dst.Decisions += d.Decisions
	dst.Propagations += d.Propagations
	dst.Restarts += d.Restarts
	dst.LearntClauses += d.Learnt
	dst.DeletedClauses += d.Deleted
}

// truncateModel trims helper variables so the model covers exactly the
// instance's variables.
func truncateModel(model []bool, numVars int) []bool {
	if len(model) > numVars+1 {
		return model[:numVars+1]
	}
	out := make([]bool, numVars+1)
	copy(out, model)
	return out
}
