// Package differ is the differential-correctness harness: it runs every
// MaxSAT engine configuration of the Step-5 portfolio individually on
// the same instance, decodes each engine's answer, and cross-checks the
// results against one another and against two independent oracles — the
// BDD engine (Rauzy minimal-cut-set extraction plus exact best-set and
// top-k enumeration) and the quantitative layer (exact top-event
// probability via internal/quant).
//
// The portfolio design of the paper only works if every engine agrees
// on the optimum: a silently wrong engine corrupts the MPMCS answer the
// whole pipeline exists to produce, and the race would hide it whenever
// a correct engine happens to finish first. The differ removes the race
// and checks, for every engine:
//
//   - status agreement: all engines (and the BDD oracle) agree on
//     whether a cut set exists at all;
//   - optimum agreement: all engines report the same integer cost;
//   - model feasibility: the model satisfies every hard clause and its
//     recomputed soft cost equals the cost the engine reported;
//   - cut-set decoding: the falsified events form a minimal cut set of
//     the original tree;
//   - probability agreement: the decoded set's probability matches the
//     BDD oracle's exact maximum within tolerance, and never exceeds
//     the exact top-event probability;
//   - top-k agreement (optional): the MaxSAT blocking-clause ranking
//     matches the BDD best-first enumeration rank by rank;
//   - anytime soundness: a FEASIBLE (deadline-interrupted) answer's
//     model is feasible, its cost bounds the optimum from above, its
//     proven lower bound from below, and its decoded probability never
//     beats the BDD oracle's exact optimum;
//   - pipeline agreement: the answer core.Analyze ships, from the full
//     race with shared bounds, matches the BDD oracle the same way.
//
// Disagreements are reported as Divergences, not errors: a divergence
// is the harness working, and the caller (cmd/ftdiff, the fuzz targets,
// CI) decides how to fail. Shrink minimizes a divergent random instance
// by walking the generator parameters down (see shrink.go).
package differ

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/core"
	"mpmcs4fta/internal/fp"
	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/maxsat"
	"mpmcs4fta/internal/mcs"
	"mpmcs4fta/internal/portfolio"
	"mpmcs4fta/internal/quant"
)

// Check kinds, one per cross-check the harness performs.
const (
	// CheckEngineError marks an engine that failed outright (not a
	// cancellation).
	CheckEngineError = "engine-error"
	// CheckStatus marks disagreement on feasibility between engines, or
	// between the engines and the BDD oracle.
	CheckStatus = "status"
	// CheckCost marks two engines reporting different optimum costs.
	CheckCost = "cost"
	// CheckModelHard marks a model that violates a hard clause.
	CheckModelHard = "model-hard"
	// CheckModelCost marks a reported cost that differs from the cost
	// the model actually incurs on the instance.
	CheckModelCost = "model-cost"
	// CheckCutSet marks a decoded event set that does not trigger the
	// top event.
	CheckCutSet = "cutset"
	// CheckMinimality marks a decoded cut set with a redundant member.
	CheckMinimality = "minimality"
	// CheckProbability marks a decoded MPMCS probability that differs
	// from the BDD oracle's exact optimum.
	CheckProbability = "probability"
	// CheckQuantBound marks an MPMCS probability exceeding the exact
	// top-event probability — impossible for a coherent tree.
	CheckQuantBound = "quant-bound"
	// CheckFeasible marks an anytime (FEASIBLE) answer that contradicts
	// a proven optimum: its cost must bound the optimum from above and
	// its proven lower bound from below.
	CheckFeasible = "feasible-bound"
	// CheckTopK marks a rank at which the MaxSAT blocking-clause
	// enumeration and the BDD best-first enumeration disagree.
	CheckTopK = "topk"
	// CheckPipeline marks the default core.Analyze answer (one
	// portfolio race over shared bounds, then the decode) disagreeing
	// with the BDD oracle: an OPTIMAL probability off the optimum, a
	// FEASIBLE one above it, or ErrNoCutSet where the oracle finds a
	// cut set (or the reverse).
	CheckPipeline = "pipeline"
)

// ProbTolerance is the relative tolerance for probability comparisons
// against the BDD oracle; it matches the tolerance the core package
// uses when cross-checking MaxSAT against the BDD baseline.
const ProbTolerance = 1e-9

// Options configures a differential check. The zero value selects the
// full default portfolio and no top-k pass.
type Options struct {
	// Engines are the portfolio members to cross-check; nil selects
	// portfolio.DefaultEngines().
	Engines []portfolio.Engine
	// PlaistedGreenbaum selects the polarity-aware Step-2 encoding.
	PlaistedGreenbaum bool
	// TopK, when positive, additionally cross-checks the first TopK
	// ranked cut sets (MaxSAT blocking-clause loop vs BDD best-first).
	TopK int
	// Timeout bounds each engine's solve (0 = none).
	Timeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Engines == nil {
		o.Engines = portfolio.DefaultEngines()
	}
	return o
}

func (o Options) coreOptions() core.Options {
	return core.Options{
		Engines:           o.Engines,
		Sequential:        true,
		PlaistedGreenbaum: o.PlaistedGreenbaum,
	}
}

// Divergence is one disagreement between an engine and its peers or an
// oracle. Engine is the offending engine's name ("bdd" for the oracle
// side of a status disagreement, empty for whole-run checks like topk).
type Divergence struct {
	Check  string `json:"check"`
	Engine string `json:"engine,omitempty"`
	Detail string `json:"detail"`
}

func (d Divergence) String() string {
	if d.Engine == "" {
		return fmt.Sprintf("[%s] %s", d.Check, d.Detail)
	}
	return fmt.Sprintf("[%s] engine %s: %s", d.Check, d.Engine, d.Detail)
}

// EngineResult records one engine's independent answer.
type EngineResult struct {
	Name    string        `json:"name"`
	Status  string        `json:"status"`
	Cost    int64         `json:"cost"`
	Elapsed time.Duration `json:"elapsedNanos"`
	// CutSet is the decoded minimal cut set (tree checks only).
	CutSet []string `json:"cutSet,omitempty"`
	// Probability is the decoded set's joint probability (tree checks
	// only).
	Probability float64 `json:"probability,omitempty"`
	Err         string  `json:"err,omitempty"`
}

// Report is the outcome of one differential check.
type Report struct {
	// Name identifies the instance (tree name or "wcnf").
	Name    string         `json:"name"`
	Engines []EngineResult `json:"engines"`
	// OracleProbability is the BDD engine's exact MPMCS probability
	// (tree checks only; 0 when no cut set exists).
	OracleProbability float64 `json:"oracleProbability,omitempty"`
	// TopProbability is the exact top-event probability from
	// internal/quant (tree checks only).
	TopProbability float64      `json:"topProbability,omitempty"`
	Divergences    []Divergence `json:"divergences,omitempty"`
}

// OK reports whether every cross-check passed.
func (r *Report) OK() bool { return len(r.Divergences) == 0 }

func (r *Report) diverge(check, engine, format string, args ...interface{}) {
	r.Divergences = append(r.Divergences, Divergence{
		Check:  check,
		Engine: engine,
		Detail: fmt.Sprintf(format, args...),
	})
}

// String renders the report for humans: one line per engine, then one
// line per divergence.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", r.Name)
	if r.OK() {
		b.WriteString(" agreement")
	} else {
		fmt.Fprintf(&b, " %d divergence(s)", len(r.Divergences))
	}
	b.WriteByte('\n')
	for _, e := range r.Engines {
		fmt.Fprintf(&b, "  %-14s %-11s cost=%-10d %12s", e.Name, e.Status, e.Cost, e.Elapsed.Round(time.Microsecond))
		if len(e.CutSet) > 0 {
			fmt.Fprintf(&b, "  p=%.6g %v", e.Probability, e.CutSet)
		}
		if e.Err != "" {
			fmt.Fprintf(&b, "  err=%s", e.Err)
		}
		b.WriteByte('\n')
	}
	for _, d := range r.Divergences {
		fmt.Fprintf(&b, "  DIVERGENCE %s\n", d)
	}
	return b.String()
}

// solveAll runs every engine individually (no race) on clones of the
// instance, recording per-engine results and engine-error divergences.
func solveAll(ctx context.Context, inst *cnf.WCNF, opts Options, r *Report) ([]maxsat.Result, error) {
	results := make([]maxsat.Result, len(opts.Engines))
	for i, engine := range opts.Engines {
		runCtx := ctx
		var cancel context.CancelFunc
		if opts.Timeout > 0 {
			runCtx, cancel = context.WithTimeout(ctx, opts.Timeout)
		}
		start := time.Now()
		res, err := engine.Solver.Solve(runCtx, inst.Clone())
		timedOut := runCtx.Err() != nil && ctx.Err() == nil
		if cancel != nil {
			cancel()
		}
		results[i] = res
		er := EngineResult{
			Name:    engine.Name,
			Status:  res.Status.String(),
			Cost:    res.Cost,
			Elapsed: time.Since(start),
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("differ: engine %s: %w", engine.Name, err)
			}
			er.Err = err.Error()
			if !timedOut {
				// A per-engine deadline interrupt with no incumbent is the
				// anytime contract working, not an engine bug.
				r.diverge(CheckEngineError, engine.Name, "solve failed: %v", err)
			}
		}
		r.Engines = append(r.Engines, er)
	}
	return results, nil
}

// checkInstanceAgreement performs the tree-independent cross-checks on
// the raw WCNF level: status agreement, cost agreement, and model
// feasibility/cost for every optimal engine.
func checkInstanceAgreement(inst *cnf.WCNF, opts Options, results []maxsat.Result, r *Report) {
	reference := -1 // first engine with a definitive, error-free answer
	for i := range results {
		if r.Engines[i].Err != "" || !results[i].Status.Definitive() {
			continue
		}
		if reference == -1 {
			reference = i
			continue
		}
		ref, cur := results[reference], results[i]
		if ref.Status != cur.Status {
			r.diverge(CheckStatus, opts.Engines[i].Name, "status %s, but engine %s found %s",
				cur.Status, opts.Engines[reference].Name, ref.Status)
			continue
		}
		if ref.Status == maxsat.Optimal && ref.Cost != cur.Cost {
			r.diverge(CheckCost, opts.Engines[i].Name, "optimum %d, but engine %s found %d",
				cur.Cost, opts.Engines[reference].Name, ref.Cost)
		}
	}
	// Anytime (FEASIBLE) answers cannot be compared for equality, but
	// they must bracket the reference: cost is an upper bound on the
	// optimum, the proven lower bound a lower one, and a feasible model
	// contradicts a proven-infeasible instance outright.
	if reference >= 0 {
		refName := opts.Engines[reference].Name
		for i, res := range results {
			if r.Engines[i].Err != "" || res.Status != maxsat.Feasible {
				continue
			}
			if results[reference].Status == maxsat.Infeasible {
				r.diverge(CheckStatus, opts.Engines[i].Name, "FEASIBLE model, but engine %s proved INFEASIBLE", refName)
				continue
			}
			opt := results[reference].Cost
			if res.Cost < opt {
				r.diverge(CheckFeasible, opts.Engines[i].Name, "anytime cost %d below optimum %d (engine %s)",
					res.Cost, opt, refName)
			}
			if res.LowerBound > opt {
				r.diverge(CheckFeasible, opts.Engines[i].Name, "proven lower bound %d exceeds optimum %d (engine %s)",
					res.LowerBound, opt, refName)
			}
		}
	}
	for i, res := range results {
		if r.Engines[i].Err != "" || (res.Status != maxsat.Optimal && res.Status != maxsat.Feasible) {
			continue
		}
		cost, err := inst.Cost(res.Model)
		if err != nil {
			r.diverge(CheckModelHard, opts.Engines[i].Name, "model infeasible: %v", err)
			continue
		}
		if cost != res.Cost {
			r.diverge(CheckModelCost, opts.Engines[i].Name, "reported cost %d, model costs %d", res.Cost, cost)
		}
	}
}

// CheckWCNF differentially checks a raw Weighted Partial MaxSAT
// instance: every engine must agree on feasibility and optimum cost,
// and every returned model must be feasible and cost what its engine
// claims. There is no tree, so the BDD and quantitative oracles do not
// apply.
func CheckWCNF(ctx context.Context, inst *cnf.WCNF, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("differ: invalid instance: %w", err)
	}
	r := &Report{Name: "wcnf"}
	results, err := solveAll(ctx, inst, opts, r)
	if err != nil {
		return nil, err
	}
	checkInstanceAgreement(inst, opts, results, r)
	return r, nil
}

// CheckTree runs the full differential harness on a fault tree: the
// six-step pipeline's Steps 1–4 build the shared instance, every engine
// solves it independently, and each answer is decoded and checked
// against the BDD top-k oracle and the exact top-event probability.
func CheckTree(ctx context.Context, tree *ft.Tree, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	steps, err := core.BuildSteps(tree, opts.coreOptions())
	if err != nil {
		return nil, fmt.Errorf("differ: build instance: %w", err)
	}
	r := &Report{Name: tree.Name()}
	results, err := solveAll(ctx, steps.Instance, opts, r)
	if err != nil {
		return nil, err
	}
	checkInstanceAgreement(steps.Instance, opts, results, r)

	// BDD oracle: exact maximum-probability minimal cut set.
	oracle, oracleErr := core.AnalyzeBDD(tree, opts.coreOptions())
	switch {
	case oracleErr == nil:
		r.OracleProbability = oracle.Probability
	case errors.Is(oracleErr, core.ErrNoCutSet) || errors.Is(oracleErr, core.ErrZeroProbability):
		// Feasibility cross-checked below; probability checks skipped.
	default:
		return nil, fmt.Errorf("differ: BDD oracle: %w", oracleErr)
	}

	// Quantitative oracle: exact P(top). Only meaningful when a cut set
	// exists.
	if oracleErr == nil {
		top, err := quant.TopEventProbability(tree)
		if err != nil {
			return nil, fmt.Errorf("differ: quant oracle: %w", err)
		}
		r.TopProbability = top
	}

	freeEvents := hasBoundaryProbabilities(tree)
	for i, res := range results {
		er := &r.Engines[i]
		if er.Err != "" {
			continue
		}
		if res.Status == maxsat.Infeasible {
			if oracleErr == nil {
				r.diverge(CheckStatus, er.Name, "INFEASIBLE, but BDD oracle found cut set with p=%g", oracle.Probability)
			}
			continue
		}
		if res.Status != maxsat.Optimal && res.Status != maxsat.Feasible {
			continue
		}
		if errors.Is(oracleErr, core.ErrNoCutSet) {
			r.diverge(CheckStatus, er.Name, "%s, but BDD oracle reports the top event cannot occur", res.Status)
			continue
		}
		set := decodeFailedSet(steps, res.Model)
		er.CutSet = set
		er.Probability = setProbability(tree, set)

		isCut, err := mcs.IsCutSet(tree, set)
		if err != nil {
			return nil, fmt.Errorf("differ: decode engine %s: %w", er.Name, err)
		}
		if !isCut {
			r.diverge(CheckCutSet, er.Name, "decoded set %v does not trigger the top event", set)
			continue
		}
		// With every weight positive, a MaxSAT optimum is necessarily
		// minimal; free (p=1) and impossible (p=0) events void that
		// argument, so the minimality check only applies without them.
		// An anytime model is merely feasible, so its failed set is a cut
		// set but need not be minimal.
		if !freeEvents && res.Status == maxsat.Optimal {
			minimal, err := mcs.IsMinimalCutSet(tree, set)
			if err != nil {
				return nil, fmt.Errorf("differ: minimality of engine %s: %w", er.Name, err)
			}
			if !minimal {
				r.diverge(CheckMinimality, er.Name, "decoded cut set %v has a redundant member", set)
				continue
			}
		}
		if oracleErr == nil {
			if res.Status == maxsat.Optimal {
				if !probEqual(er.Probability, oracle.Probability) {
					r.diverge(CheckProbability, er.Name, "decoded p=%g, BDD oracle optimum p=%g (set %v)",
						er.Probability, oracle.Probability, set)
				}
			} else if er.Probability > oracle.Probability*(1+ProbTolerance)+1e-300 {
				r.diverge(CheckFeasible, er.Name, "anytime p=%g exceeds BDD oracle optimum p=%g (set %v)",
					er.Probability, oracle.Probability, set)
			}
			if er.Probability > r.TopProbability*(1+ProbTolerance)+1e-300 {
				r.diverge(CheckQuantBound, er.Name, "decoded p=%g exceeds exact P(top)=%g",
					er.Probability, r.TopProbability)
			}
		}
	}

	if opts.TopK > 0 && oracleErr == nil {
		checkTopK(ctx, tree, opts, r)
	}
	checkPipeline(ctx, tree, opts, oracle, oracleErr, r)
	return r, nil
}

// checkPipeline holds the answer the pipeline actually ships — the
// default core.Analyze, whose engines race over shared
// portfolio.Bounds — to the BDD oracle. solveAll runs each engine
// alone, so only this check sees the race: a cooperative optimality
// proof, a synthesized anytime answer, the decode of the winner.
// oracleErr is ErrNoCutSet or ErrZeroProbability when no cut set of
// positive probability exists; p = 0 events are hard in the MaxSAT
// instance, so the pipeline must then report ErrNoCutSet.
func checkPipeline(ctx context.Context, tree *ft.Tree, opts Options, oracle *core.Solution, oracleErr error, r *Report) {
	sol, err := core.Analyze(ctx, tree, core.Options{
		Engines:           opts.Engines,
		PlaistedGreenbaum: opts.PlaistedGreenbaum,
		Timeout:           opts.Timeout,
	})
	switch {
	case errors.Is(err, core.ErrNoCutSet):
		if oracleErr == nil {
			r.diverge(CheckPipeline, "", "no cut set, but BDD oracle found p=%g", oracle.Probability)
		}
	case errors.Is(err, core.ErrNoAnswer):
		// The budget ran out before any answer: not a disagreement.
	case err != nil:
		r.diverge(CheckPipeline, "", "analysis failed: %v", err)
	case oracleErr != nil:
		r.diverge(CheckPipeline, "", "%s p=%g %v, but BDD oracle reports no cut set",
			sol.Status, sol.Probability, sol.CutSetIDs())
	case sol.Status == maxsat.Optimal.String():
		if !probEqual(sol.Probability, oracle.Probability) {
			r.diverge(CheckPipeline, "", "OPTIMAL p=%g %v, BDD oracle optimum p=%g",
				sol.Probability, sol.CutSetIDs(), oracle.Probability)
		}
	case sol.Probability > oracle.Probability*(1+ProbTolerance)+1e-300:
		r.diverge(CheckPipeline, "", "%s p=%g %v exceeds BDD oracle optimum p=%g",
			sol.Status, sol.Probability, sol.CutSetIDs(), oracle.Probability)
	}
}

// checkTopK cross-checks the MaxSAT blocking-clause ranking against the
// BDD best-first enumeration, rank by rank, on count and probability.
func checkTopK(ctx context.Context, tree *ft.Tree, opts Options, r *Report) {
	copts := opts.coreOptions()
	copts.Timeout = opts.Timeout
	viaSAT, err := core.AnalyzeTopK(ctx, tree, opts.TopK, copts)
	if err != nil {
		if errors.Is(err, core.ErrNoAnswer) {
			// The deadline struck before round 0 produced anything — a
			// budget artefact of anytime mode, not a disagreement.
			return
		}
		r.diverge(CheckTopK, "", "MaxSAT top-%d enumeration failed: %v", opts.TopK, err)
		return
	}
	viaBDD, err := core.AnalyzeTopKBDD(tree, opts.TopK, copts)
	if err != nil {
		r.diverge(CheckTopK, "", "BDD top-%d enumeration failed: %v", opts.TopK, err)
		return
	}
	if len(viaSAT) != len(viaBDD) {
		r.diverge(CheckTopK, "", "MaxSAT enumerated %d cut sets, BDD oracle %d", len(viaSAT), len(viaBDD))
		return
	}
	for rank := range viaSAT {
		if !probEqual(viaSAT[rank].Probability, viaBDD[rank].Probability) {
			r.diverge(CheckTopK, "", "rank %d: MaxSAT p=%g (%v), BDD p=%g (%v)",
				rank+1, viaSAT[rank].Probability, viaSAT[rank].CutSetIDs(),
				viaBDD[rank].Probability, viaBDD[rank].CutSetIDs())
		}
	}
}

// decodeFailedSet extracts the failed events (falsified y variables)
// from a model, sorted for deterministic reporting.
func decodeFailedSet(steps *core.Steps, model []bool) []string {
	var set []string
	for _, w := range steps.Weights {
		y := steps.Encoding.VarOf[w.ID]
		if y < len(model) && !model[y] {
			set = append(set, w.ID)
		}
	}
	sort.Strings(set)
	return set
}

// setProbability is the joint probability of the set's events failing
// (independent events).
func setProbability(tree *ft.Tree, set []string) float64 {
	p := 1.0
	for _, id := range set {
		p *= tree.Event(id).Prob
	}
	return p
}

// hasBoundaryProbabilities reports whether any event has p=0 or p=1 —
// the cases where a MaxSAT optimum need not decode to a minimal set.
func hasBoundaryProbabilities(tree *ft.Tree) bool {
	for _, e := range tree.Events() {
		if fp.Zero(e.Prob) || fp.One(e.Prob) {
			return true
		}
	}
	return false
}

// probEqual compares probabilities with the oracle tolerance.
func probEqual(a, b float64) bool {
	return fp.EqTol(a, b, ProbTolerance)
}
