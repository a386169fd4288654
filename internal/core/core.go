// Package core implements the paper's contribution: computing the
// Maximum Probability Minimal Cut Set (MPMCS) of a fault tree by
// reduction to Weighted Partial MaxSAT, solved by a parallel portfolio.
//
// The six steps of the resolution method map to this package as
// follows:
//
//	Step 1 (logical transformation)  — Steps.SuccessFormula via boolexpr.Dual
//	Step 2 (CNF conversion)          — Steps.Encoding via cnf.Tseitin
//	Step 3 (−log weights)            — Steps.Weights via LogWeights
//	Step 4 (WPMS instance)           — Steps.Instance (hard CNF + unit softs)
//	Step 5 (parallel resolution)     — portfolio.Solve
//	Step 6 (reverse transformation)  — exp(−Σ wᵢ) over the chosen events
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"mpmcs4fta/internal/boolexpr"
	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/fp"
	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/maxsat"
	"mpmcs4fta/internal/obs"
	"mpmcs4fta/internal/portfolio"
)

// DefaultScale converts float −log weights to the integer weights used
// by the MaxSAT engines: wᵢ(int) = round(wᵢ · DefaultScale). At 1e7 the
// rounding error per event is below 5e-8 in log space, far finer than
// any realistic probability estimate.
const DefaultScale = 1e7

// Sentinel errors.
var (
	// ErrNoCutSet is returned when the top event cannot occur at all
	// (no cut set exists under the given constraints).
	ErrNoCutSet = errors.New("core: fault tree has no cut set")
	// ErrZeroProbability is returned when every cut set has probability
	// zero (all involve impossible events).
	ErrZeroProbability = errors.New("core: all cut sets have probability zero")
	// ErrNoAnswer is returned when the solve ended (deadline expiry,
	// cancellation) before any answer — optimal, anytime incumbent or
	// infeasibility proof — was established. It is distinct from
	// ErrNoCutSet: "we ran out of time" is not "the tree has no cut
	// set", and conflating them turns a transient budget artefact into
	// a wrong (and cacheable) verdict about the tree.
	ErrNoAnswer = errors.New("core: no answer before the deadline")
)

// noAnswerErr wraps ErrNoAnswer together with the context's own error
// when the context has expired, so callers can match either sentinel
// (errors.Is(err, ErrNoAnswer), errors.Is(err, context.DeadlineExceeded)).
func noAnswerErr(ctx context.Context) error {
	if cause := ctx.Err(); cause != nil {
		return fmt.Errorf("%w (%w)", ErrNoAnswer, cause)
	}
	return ErrNoAnswer
}

// Options configures the pipeline. The zero value selects defaults.
type Options struct {
	// Engines is the Step-5 portfolio; nil selects
	// portfolio.DefaultEngines().
	Engines []portfolio.Engine
	// Sequential runs the same portfolio race with one engine in
	// flight (portfolio.SolveSequential): the first engine in order
	// with a definitive answer wins, which makes the winner
	// deterministic for tests and per-engine benchmarking.
	Sequential bool
	// PlaistedGreenbaum selects the polarity-aware CNF encoding in
	// Step 2.
	PlaistedGreenbaum bool
	// Timeout bounds the whole analysis (0 = none).
	Timeout time.Duration
	// Tracer records hierarchical spans for the six pipeline steps and
	// the per-engine portfolio race. Nil disables tracing at zero cost.
	Tracer obs.Tracer
	// Metrics, when non-nil, accumulates process-level counters
	// (analyses, winner tallies, solver work) across calls, and is
	// plumbed into the solvers to record live histograms (SAT-call
	// latency, learnt-clause lengths, trail depths).
	Metrics *obs.Metrics
	// Bus, when non-nil, receives live solver events — solve and engine
	// lifecycle, bound improvements, restarts, heartbeats — while the
	// analysis runs (see obs.EventBus; mpmcsd streams them on /events
	// and ?stream=1). Nil disables the event path at zero cost.
	Bus *obs.EventBus
	// NoDecompose is ignored: every analysis solves the tree as one
	// WCNF instance.
	//
	// Deprecated: the decomposed solve path it switched off is gone.
	NoDecompose bool
}

func (o Options) withDefaults() Options {
	if o.Engines == nil {
		o.Engines = portfolio.DefaultEngines()
	}
	return o
}

// withTimeout bounds ctx by Timeout when one is set. Every MaxSAT
// analysis entry point applies it.
func (o Options) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if o.Timeout > 0 {
		return context.WithTimeout(ctx, o.Timeout)
	}
	return ctx, func() {}
}

// tracer returns the configured tracer or the zero-cost no-op one.
func (o Options) tracer() obs.Tracer {
	if o.Tracer == nil {
		return obs.Nop()
	}
	return o.Tracer
}

// EventWeight is one row of the paper's Table I: an event probability
// and its −log transform (both the exact float and the scaled integer
// actually handed to the MaxSAT engines).
type EventWeight struct {
	ID     string  `json:"id"`
	Prob   float64 `json:"probability"`
	Weight float64 `json:"weight"` // −ln(p)
	Scaled int64   `json:"scaled"` // round(weight · scale); 0 marks a free (p=1) event
	Hard   bool    `json:"hard"`   // p=0: the event can never fail
}

// Steps exposes the intermediate artefacts of Steps 1–4 so that
// examples, tests and the CLI can show the pipeline at work.
type Steps struct {
	// FaultFormula is f(t), the structure function over event ids.
	FaultFormula boolexpr.Expr
	// SuccessFormula is Y(t): f(t) with gates flipped and variables
	// positive (y = ¬x), per Step 1.
	SuccessFormula boolexpr.Expr
	// Encoding is the Tseitin CNF of ¬Y(t) over the y variables; the
	// event ids occupy DIMACS variables 1..len(Weights) in Events()
	// order (Step 2).
	Encoding *cnf.Encoding
	// Weights holds the Step-3 probability transform for every event.
	Weights []EventWeight
	// Instance is the Step-4 Weighted Partial MaxSAT instance: the hard
	// CNF plus one positive unit soft clause (yᵢ) per fallible event.
	Instance *cnf.WCNF
}

// BuildSteps runs Steps 1–4 of the pipeline.
func BuildSteps(tree *ft.Tree, opts Options) (*Steps, error) {
	opts = opts.withDefaults()
	return buildSteps(tree, opts, opts.tracer())
}

// buildSteps runs Steps 1–4, recording one span per pipeline step
// under parent (the tracer itself, or an analysis root span).
func buildSteps(tree *ft.Tree, opts Options, parent obs.SpanStarter) (*Steps, error) {
	sp := parent.StartSpan("validate")
	err := tree.Validate()
	sp.End()
	if err != nil {
		return nil, err
	}

	sp = parent.StartSpan("formula")
	f, err := tree.Formula()
	if err != nil {
		sp.End()
		return nil, err
	}
	success := boolexpr.Dual(f)
	sp.End()

	events := tree.Events()
	order := make([]string, len(events))
	for i, e := range events {
		order[i] = e.ID
	}

	sp = parent.StartSpan("weights")
	weights := LogWeights(events, DefaultScale)
	if sp.Recording() {
		sp.SetInt("events", int64(len(weights)))
	}
	sp.End()

	sp = parent.StartSpan("encode")
	// ¬Y(t) over the y variables models the occurrence of the top event
	// (Step 1); Tseitin converts it to CNF (Step 2).
	enc, err := cnf.Tseitin(boolexpr.Not{X: success}, cnf.TseitinOptions{
		PlaistedGreenbaum: opts.PlaistedGreenbaum,
		VarOrder:          order,
	})
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("core: encode success tree: %w", err)
	}

	instance := WPMSInstance(enc, weights)
	if sp.Recording() {
		sp.SetInt("vars", int64(instance.NumVars))
		sp.SetInt("hardClauses", int64(len(instance.Hard)))
		sp.SetInt("softClauses", int64(len(instance.Soft)))
	}
	sp.End()

	return &Steps{
		FaultFormula:   f,
		SuccessFormula: success,
		Encoding:       enc,
		Weights:        weights,
		Instance:       instance,
	}, nil
}

// WPMSInstance performs Step 4: the hard CNF of the encoding plus one
// positive unit soft clause (yᵢ) per fallible event, weighted by its
// scaled −log probability.
func WPMSInstance(enc *cnf.Encoding, weights []EventWeight) *cnf.WCNF {
	instance := &cnf.WCNF{NumVars: enc.Formula.NumVars}
	for _, clause := range enc.Formula.Clauses {
		instance.AddHard(clause...)
	}
	for _, w := range weights {
		y := cnf.Lit(enc.VarOf[w.ID])
		switch {
		case w.Hard:
			// p = 0: the event cannot fail, i.e. yᵢ must hold.
			instance.AddHard(y)
		case w.Scaled > 0:
			// Falsifying yᵢ (event fails) costs the −log weight.
			instance.AddSoft(w.Scaled, y)
		}
		// Scaled == 0 (p = 1): the event fails freely at no cost; no
		// clause is needed.
	}
	return instance
}

// LogWeights performs Step 3: wᵢ = −ln(p(xᵢ)), scaled to integers.
// Events with p = 0 are marked Hard (they can never fail); events with
// p = 1 get weight 0 (failing them is free). Weights that would round
// to 0 for p < 1 are clamped to 1 to stay positive.
func LogWeights(events []*ft.BasicEvent, scale float64) []EventWeight {
	out := make([]EventWeight, len(events))
	for i, e := range events {
		w := EventWeight{ID: e.ID, Prob: e.Prob}
		switch {
		case fp.Zero(e.Prob):
			w.Weight = math.Inf(1)
			w.Hard = true
		case fp.One(e.Prob):
			w.Weight = 0
			w.Scaled = 0
		default:
			w.Weight = -math.Log(e.Prob)
			w.Scaled = int64(math.Round(w.Weight * scale))
			if w.Scaled < 1 {
				w.Scaled = 1
			}
		}
		out[i] = w
	}
	return out
}

// SolutionEvent is one MPMCS member in the solution document.
type SolutionEvent struct {
	ID          string  `json:"id"`
	Description string  `json:"description,omitempty"`
	Prob        float64 `json:"probability"`
	Weight      float64 `json:"weight"`
}

// SolutionStats summarises instance sizes and solver effort.
type SolutionStats struct {
	Events      int `json:"events"`
	Gates       int `json:"gates"`
	Vars        int `json:"vars"`
	HardClauses int `json:"hardClauses"`
	SoftClauses int `json:"softClauses"`
	// Solver reports the winning engine's work counters and cost-bound
	// trajectory (zero-valued for the BDD baseline, which has no SAT
	// oracle).
	Solver obs.SolverStats `json:"solver"`
}

// Solution is the analysis result — the content of the JSON document
// the MPMCS4FTA tool emits (the paper's Fig. 2 artefact).
type Solution struct {
	Tree        string          `json:"tree"`
	Method      string          `json:"method"`
	MPMCS       []SolutionEvent `json:"mpmcs"`
	Probability float64         `json:"probability"`
	LogCost     float64         `json:"logCost"` // Σ wᵢ over the MPMCS
	Solver      string          `json:"solver"`
	ElapsedMS   float64         `json:"elapsedMillis"`
	Stats       SolutionStats   `json:"stats"`
	// Status is "OPTIMAL" when the solve proved the reported cut set
	// maximal-probability, "FEASIBLE" for an anytime answer returned
	// under a deadline: still a sound minimal cut set, but possibly not
	// the most probable one.
	Status string `json:"status,omitempty"`
	// OptimalityGap bounds how far a FEASIBLE answer may be from the
	// optimum, in −log-probability space: the true MPMCS log-cost is at
	// least LogCost − OptimalityGap. Zero (omitted) when OPTIMAL.
	OptimalityGap float64 `json:"optimalityGap,omitempty"`
	// ProbabilityUpperBound is exp(−provenLowerBound): no cut set is
	// more probable than this. Set only for FEASIBLE answers.
	ProbabilityUpperBound float64 `json:"probabilityUpperBound,omitempty"`
	// Weights reproduces Table I: the Step-3 transform of every event.
	Weights []EventWeight `json:"weights"`
}

// CutSetIDs returns the MPMCS member ids, sorted.
func (s *Solution) CutSetIDs() []string {
	ids := make([]string, len(s.MPMCS))
	for i, e := range s.MPMCS {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return ids
}

// Analyze computes the MPMCS of the tree via the full six-step
// pipeline.
func Analyze(ctx context.Context, tree *ft.Tree, opts Options) (*Solution, error) {
	opts = opts.withDefaults()
	ctx, cancel := opts.withTimeout(ctx)
	defer cancel()
	start := time.Now()
	root := opts.tracer().StartSpan("analyze")
	defer root.End()
	if root.Recording() {
		root.SetString("tree", tree.Name())
	}
	steps, err := buildSteps(tree, opts, root)
	if err != nil {
		return nil, err
	}
	return solveOnce(ctx, tree, steps, opts, root, start)
}

// solveOnce runs Steps 5–6 of a single-answer query on a built
// instance: one spanned solve, then the decode of an OPTIMAL or anytime
// FEASIBLE answer. start marks the beginning of the analysis, for
// ElapsedMS.
func solveOnce(ctx context.Context, tree *ft.Tree, steps *Steps, opts Options, root obs.SpanStarter, start time.Time) (*Solution, error) {
	res, report, err := solveSpanned(ctx, steps.Instance, opts, root)
	if err != nil {
		return nil, err
	}
	switch res.Status {
	case maxsat.Infeasible:
		return nil, ErrNoCutSet
	case maxsat.Optimal, maxsat.Feasible:
		// proceed; Feasible is the anytime answer under a deadline
	default:
		return nil, noAnswerErr(ctx)
	}
	return decodeSolution(tree, steps, res, report, opts, root, start)
}

// solveInstance runs Step 5 on an encoded instance. It is the lowest
// common choke point of every analysis flavour, so the live-telemetry
// plumbing happens here: the bus and metrics registry ride the context
// into the portfolio and its engines, and each solve is bracketed by
// SolveStarted / SolveFinished events — the terminal frame /events
// subscribers wait for.
func solveInstance(ctx context.Context, inst *cnf.WCNF, opts Options) (maxsat.Result, portfolio.Report, error) {
	bus := opts.Bus
	if bus.Enabled() {
		ctx = obs.ContextWithBus(ctx, bus)
		bus.Publish(obs.SolveStarted{
			Vars:        inst.NumVars,
			HardClauses: len(inst.Hard),
			SoftClauses: len(inst.Soft),
			Engines:     len(opts.Engines),
		})
	}
	if opts.Metrics != nil {
		ctx = obs.ContextWithMetrics(ctx, opts.Metrics)
	}
	start := time.Now()
	var (
		res    maxsat.Result
		report portfolio.Report
		err    error
	)
	if opts.Sequential {
		res, report, err = portfolio.SolveSequential(ctx, inst, opts.Engines)
	} else {
		res, report, err = portfolio.Solve(ctx, inst, opts.Engines)
	}
	if err != nil && errors.Is(err, portfolio.ErrNoAnswer) {
		// Translate the portfolio's "race ended empty-handed" into the
		// pipeline taxonomy: callers must be able to tell a budget
		// expiry (ErrNoAnswer) from a verdict about the tree
		// (ErrNoCutSet), or a cache would make the wrong one permanent.
		err = fmt.Errorf("%w (%w)", ErrNoAnswer, err)
	}
	if bus.Enabled() {
		finished := obs.SolveFinished{
			Status:     res.Status.String(),
			Winner:     report.Winner,
			Cost:       res.Cost,
			LowerBound: res.LowerBound,
			ElapsedMS:  float64(time.Since(start).Microseconds()) / 1000,
		}
		if err != nil {
			finished.Err = err.Error()
		}
		bus.Publish(finished)
	}
	return res, report, err
}

// solveSpanned wraps Step 5 in a "solve" span; the span rides the
// context into the portfolio, which records one child span per engine.
func solveSpanned(ctx context.Context, inst *cnf.WCNF, opts Options, parent obs.SpanStarter) (maxsat.Result, portfolio.Report, error) {
	sp := parent.StartSpan("solve")
	defer sp.End()
	if sp.Recording() {
		ctx = obs.ContextWithSpan(ctx, sp)
		sp.SetBool("sequential", opts.Sequential)
	}
	res, report, err := solveInstance(ctx, inst, opts)
	if sp.Recording() {
		sp.SetString("winner", report.Winner)
		sp.SetFloat("elapsedMillis", float64(report.Elapsed.Microseconds())/1000)
	}
	return res, report, err
}

// decodeSolution wraps Step 6 in a "decode" span, stamps the
// solution with the time elapsed since start, and counts it in the
// metrics.
func decodeSolution(tree *ft.Tree, steps *Steps, res maxsat.Result, report portfolio.Report, opts Options, parent obs.SpanStarter, start time.Time) (*Solution, error) {
	sp := parent.StartSpan("decode")
	solution, err := buildSolution(tree, steps, res, report)
	if err == nil && sp.Recording() {
		sp.SetInt("cutSetSize", int64(len(solution.MPMCS)))
		sp.SetFloat("probability", solution.Probability)
		sp.SetString("solutionStatus", solution.Status)
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	solution.ElapsedMS = millisSince(start)
	recordAnalysisMetrics(opts.Metrics, solution, report)
	return solution, nil
}

// millisSince is the ElapsedMS reading of a timer started at start.
func millisSince(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}

// recordAnalysisMetrics folds one completed analysis into the
// process-level counters: race is the portfolio race whose model the
// solution is built from. Safe on a nil registry.
func recordAnalysisMetrics(m *obs.Metrics, sol *Solution, race portfolio.Report) {
	if m == nil {
		return
	}
	m.Add("analyses", 1)
	m.Add("solve_us_total", race.Elapsed.Microseconds())
	if sol.Status == maxsat.Feasible.String() {
		m.Add("anytime_answers", 1)
	}
	s := sol.Stats.Solver
	m.Add("sat_calls", s.SATCalls)
	m.Add("conflicts", s.Conflicts)
	m.Add("decisions", s.Decisions)
	m.Add("propagations", s.Propagations)
	if race.Winner != "" {
		m.Add("winner."+race.Winner, 1)
	}
	if c := race.Coop; c.ModelsPublished > 0 || c.LowerBoundsPublished > 0 {
		m.Add("coop_models_published", c.ModelsPublished)
		m.Add("coop_models_improved", c.ModelsImproved)
		m.Add("coop_lower_bounds_published", c.LowerBoundsPublished)
	}
	if race.Coop.RaceClosedByBounds {
		m.Add("coop_race_closed_by_bounds", 1)
	}
}

// buildSolution extracts the cut set from a MaxSAT model and performs
// the Step-6 reverse transformation. Feasible (anytime) results decode
// exactly like Optimal ones — the minimisation pass guarantees the
// reported set is a genuine minimal cut set either way — but carry the
// optimality gap translated back to log/probability space.
func buildSolution(tree *ft.Tree, steps *Steps, res maxsat.Result, report portfolio.Report) (*Solution, error) {
	solution, err := newSolution(tree, steps.Weights, modelCutSet(tree, steps, res.Model), maxsatMethod)
	if err != nil {
		return nil, err
	}
	solution.Solver = report.Winner
	solution.Status = res.Status.String()
	solution.Stats.Vars = steps.Instance.NumVars
	solution.Stats.HardClauses = len(steps.Instance.Hard)
	solution.Stats.SoftClauses = len(steps.Instance.Soft)
	if win := report.WinnerReport(); win != nil {
		solution.Stats.Solver = win.Stats
	}
	if res.Status == maxsat.Feasible {
		if gap := res.Gap(); gap > 0 {
			solution.OptimalityGap = float64(gap) / DefaultScale
		}
		// No cut set is cheaper than the proven lower bound, so none is
		// more probable than exp(−lb/scale).
		solution.ProbabilityUpperBound = math.Exp(-float64(res.LowerBound) / DefaultScale)
	}
	return solution, nil
}

// maxsatMethod names the MaxSAT pipeline in the solution document.
const maxsatMethod = "Weighted Partial MaxSAT"

// newSolution performs the Step-6 reverse transformation of one cut
// set: the member rows of the solution document, the log-cost Σwᵢ and
// the probability ∏pᵢ, which must equal exp(−Σwᵢ) up to round-off.
// Status defaults to OPTIMAL; the caller fills in the solver fields.
func newSolution(tree *ft.Tree, weights []EventWeight, set []string, method string) (*Solution, error) {
	weightByID := make(map[string]EventWeight, len(weights))
	for _, w := range weights {
		weightByID[w.ID] = w
	}
	var (
		logCost float64
		events  []SolutionEvent
	)
	probability := 1.0
	for _, id := range set {
		w, ok := weightByID[id]
		if !ok {
			return nil, fmt.Errorf("core: cut set contains unknown event %q", id)
		}
		events = append(events, SolutionEvent{
			ID:          id,
			Description: tree.Event(id).Description,
			Prob:        w.Prob,
			Weight:      w.Weight,
		})
		logCost += w.Weight
		probability *= w.Prob
	}
	// Step 6: PF(t) = exp(−Σ wᵢ); equals the direct product up to
	// floating-point round-off.
	fromLog := math.Exp(-logCost)
	if math.Abs(fromLog-probability) > 1e-9*math.Max(fromLog, probability) {
		return nil, fmt.Errorf("core: reverse transform mismatch: exp(−Σw)=%v, ∏p=%v", fromLog, probability)
	}
	stats := tree.Stats()
	return &Solution{
		Tree:        tree.Name(),
		Method:      method,
		MPMCS:       events,
		Probability: probability,
		LogCost:     logCost,
		Status:      maxsat.Optimal.String(),
		Stats:       SolutionStats{Events: stats.Events, Gates: stats.Gates},
		Weights:     weights,
	}, nil
}

// InfeasibleSolution is the answer document for a tree whose top event
// cannot occur (ErrNoCutSet): an explicit empty cut set with status
// INFEASIBLE, so every surface reports the verdict as a well-formed
// solution object rather than an error.
func InfeasibleSolution(tree *ft.Tree) *Solution {
	return &Solution{
		Tree:   tree.Name(),
		Method: maxsatMethod,
		MPMCS:  []SolutionEvent{},
		Status: maxsat.Infeasible.String(),
	}
}

// modelCutSet reads the failed events off a MaxSAT model (falsified y
// variables) and minimises them to a minimal cut set.
func modelCutSet(tree *ft.Tree, steps *Steps, model []bool) []string {
	failed := make(map[string]bool, len(steps.Weights))
	for _, w := range steps.Weights {
		y := steps.Encoding.VarOf[w.ID]
		if y < len(model) && !model[y] {
			failed[w.ID] = true
		}
	}
	return minimizeCutSet(tree, failed)
}

// minimizeCutSet greedily removes unnecessary events; for coherent
// trees the result is a minimal cut set. MaxSAT optima are already
// minimal whenever every event has positive weight, so this is a cheap
// defensive pass that also covers free (p=1) events.
func minimizeCutSet(tree *ft.Tree, failed map[string]bool) []string {
	ids := make([]string, 0, len(failed))
	for id, isFailed := range failed {
		if isFailed {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		if !failed[id] {
			continue
		}
		failed[id] = false
		still, err := tree.Eval(failed)
		if err != nil || !still {
			failed[id] = true
		}
	}
	out := ids[:0]
	for _, id := range ids {
		if failed[id] {
			out = append(out, id)
		}
	}
	return out
}
