// Package portfolio implements Step 5 of the paper's pipeline: several
// pre-configured MaxSAT solvers run in parallel on the same instance and
// the solution of the solver that finishes first is used. The paper
// motivates this with the observation that SAT-based solvers are "very
// good at some instances and not that good at others"; running a diverse
// portfolio gives stable behaviour across instance families.
//
// The race is cooperative: a shared bound manager (Bounds) relays every
// engine's improving models and proven lower bounds to its siblings, so
// LinearSU tightens its budget from the global incumbent, BranchBound
// prunes against it, and WMSU1's core payments raise a global lower
// bound. When the global lower bound meets the global upper bound the
// race stops early with a cooperatively-proven Optimal. When a deadline
// expires first, Solve synthesizes the best anytime answer (Status
// Feasible, with an optimality gap) instead of failing.
//
// Observability: when the caller's context carries a tracing span (see
// obs.ContextWithSpan), Solve records one child span per engine with
// the engine's solver counters, and every EngineReport carries the
// engine's obs.SolverStats — including losers and cancelled members.
// Report.Coop summarises the cross-engine bound traffic.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/maxsat"
	"mpmcs4fta/internal/obs"
	"mpmcs4fta/internal/sat"
)

// Engine is a named portfolio member.
type Engine struct {
	Name   string
	Solver maxsat.Solver
}

// DefaultEngines returns the standard portfolio: the three algorithms of
// internal/maxsat, WMSU1 both plain and stratified, each under its own name.
func DefaultEngines() []Engine {
	return []Engine{
		{Name: "wmsu1", Solver: &maxsat.WMSU1{}},
		{Name: "wmsu1-strat", Solver: &maxsat.WMSU1{Stratified: true}},
		{Name: "linear-su", Solver: &maxsat.LinearSU{}},
		{Name: "branch-bound", Solver: &maxsat.BranchBound{}},
	}
}

// EngineReport describes one portfolio member's run.
type EngineReport struct {
	Name      string
	Elapsed   time.Duration
	Completed bool // finished with a definitive answer
	// Cancelled marks an engine that was stopped by the race — a
	// sibling won, the shared bounds met, or the parent context expired
	// — not a real failure. Err names the cause.
	Cancelled bool
	Err       string // non-empty when the engine failed or was cancelled
	// Status is the engine's own answer (Feasible for an anytime
	// incumbent returned on cancellation, Unknown when it had nothing).
	Status maxsat.Status
	// Cost is the engine's model cost (valid when Status is Optimal or
	// Feasible); LowerBound its proven lower bound on the optimum.
	Cost       int64
	LowerBound int64
	// Stats reports the engine's solver counters and bound trajectory,
	// populated for winners, losers and cancelled members alike.
	Stats obs.SolverStats
}

// Report summarises a portfolio run.
type Report struct {
	// Winner names the engine whose model the returned Result carries:
	// the first definitively-finished engine, or — for anytime and
	// cooperatively-proven answers — the engine holding the best
	// incumbent. Empty when the run produced no model.
	Winner string
	// Elapsed is the time to the first definitive answer, or the total
	// run time when every engine failed. It is always set.
	Elapsed time.Duration
	Engines []EngineReport
	// Coop summarises the cooperative bound traffic between engines.
	Coop obs.BoundTraffic
}

// WinnerReport returns the report of the engine named by Winner, or nil
// when no engine produced the result.
func (r *Report) WinnerReport() *EngineReport {
	if r.Winner == "" {
		return nil
	}
	for i := range r.Engines {
		if r.Engines[i].Name == r.Winner {
			return &r.Engines[i]
		}
	}
	return nil
}

// ErrNoEngines is returned when Solve is called with an empty portfolio.
var ErrNoEngines = errors.New("portfolio: no engines")

// ErrNoAnswer is returned (wrapped) when the race ends without any
// answer at all — no optimum, no infeasibility proof, no anytime
// incumbent. Callers use it to tell "the budget ran out before anything
// was learned" apart from a genuine engine failure; the context's own
// error, when the race was cancelled, is wrapped alongside.
var ErrNoAnswer = errors.New("portfolio: no answer")

// cancelledBySibling reports whether err looks like the interruption
// the race's cancel signal produces (as opposed to an engine bug).
func cancelledBySibling(err error) bool {
	return errors.Is(err, sat.ErrInterrupted) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// Solve runs all engines concurrently on (copies of) the instance,
// cooperating through a shared bound manager, and returns the first
// definitive result; the remaining engines are cancelled and awaited
// before returning, so no goroutines outlive the call.
//
// When no engine finishes definitively — deadline, cancellation, or the
// shared bounds meeting first — Solve synthesizes the best anytime
// answer: the cheapest incumbent any engine returned, upgraded to
// Optimal when the global lower bound proves it, otherwise Feasible
// with the bound gap. Only when there is nothing to report does it
// return an error: the parent context's error when the run was cut
// short, or the first engine failure otherwise.
func Solve(ctx context.Context, inst *cnf.WCNF, engines []Engine) (maxsat.Result, Report, error) {
	if len(engines) == 0 {
		return maxsat.Result{}, Report{}, ErrNoEngines
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	bounds := NewBounds(cancel)

	parent := obs.SpanFromContext(ctx)
	bus := obs.BusFromContext(ctx)
	bounds.SetEventBus(bus)
	telemetryOn := bus.Enabled() || obs.MetricsFromContext(ctx) != nil

	type outcome struct {
		result  maxsat.Result
		err     error
		elapsed time.Duration
	}
	type indexed struct {
		index int
		outcome
	}
	results := make(chan indexed, len(engines))
	start := time.Now()

	var wg sync.WaitGroup
	for i, engine := range engines {
		wg.Add(1)
		span := parent.StartSpan("engine:" + engine.Name)
		go func(index int, e Engine, copyInst *cnf.WCNF, span obs.Span) {
			defer wg.Done()
			engineCtx := runCtx
			if telemetryOn {
				engineCtx = obs.ContextWithEngineName(runCtx, e.Name)
			}
			if bus.Enabled() {
				bus.Publish(obs.EngineStarted{Engine: e.Name})
			}
			t0 := time.Now()
			res, err := solveIsolated(engineCtx, e.Solver, copyInst, bounds.ForEngine(e.Name))
			if bus.Enabled() {
				finished := obs.EngineFinished{
					Engine:     e.Name,
					Status:     res.Status.String(),
					Cost:       res.Cost,
					LowerBound: res.LowerBound,
				}
				if err != nil {
					finished.Err = err.Error()
				}
				bus.Publish(finished)
			}
			recordEngineSpan(span, res, err)
			results <- indexed{index: index, outcome: outcome{result: res, err: err, elapsed: time.Since(t0)}}
		}(i, engine, inst.Clone(), span)
	}

	report := Report{Engines: make([]EngineReport, len(engines))}
	for i, e := range engines {
		report.Engines[i] = EngineReport{Name: e.Name}
	}

	outcomes := make([]*outcome, len(engines))
	winner := -1
	for received := 0; received < len(engines); received++ {
		ind := <-results
		out := ind.outcome
		outcomes[ind.index] = &out
		if out.err == nil && out.result.Status.Definitive() && winner < 0 {
			winner = ind.index
			report.Winner = engines[ind.index].Name
			report.Elapsed = time.Since(start)
			cancel() // stop the stragglers
		}
	}
	wg.Wait()
	close(results)
	report.Coop = bounds.Traffic()
	if report.Elapsed == 0 {
		report.Elapsed = time.Since(start)
	}

	// Classify every member now that the race's end cause is known.
	boundsClosed := bounds.Closed()
	parentDead := ctx.Err() != nil
	var firstErr error
	for i, out := range outcomes {
		rep := &report.Engines[i]
		rep.Elapsed = out.elapsed
		// Retag under the portfolio's registered name: standalone engines
		// only know their algorithm name, which a custom registration (a
		// test fake, say) need not share. Tag the outcome first so the
		// report and a returned winner result carry identical stats.
		out.result.Stats.TagEngine(engines[i].Name)
		rep.Stats = out.result.Stats
		rep.Status = out.result.Status
		rep.Cost = out.result.Cost
		rep.LowerBound = out.result.LowerBound
		if out.err == nil {
			if out.result.Status.Definitive() {
				rep.Completed = true
				continue
			}
			// A partial answer (Feasible incumbent or Unknown): the
			// engine was stopped by the race, not broken.
			if winner >= 0 || boundsClosed || parentDead {
				rep.Cancelled = true
				rep.Err = cancelCause(winner >= 0, boundsClosed, parentDead)
			}
			continue
		}
		rep.Err = out.err.Error()
		if cancelledBySibling(out.err) && (winner >= 0 || boundsClosed || parentDead) {
			rep.Cancelled = true
			rep.Err = cancelCause(winner >= 0, boundsClosed, parentDead) + ": " + rep.Err
		} else if firstErr == nil {
			firstErr = fmt.Errorf("portfolio: engine %s: %w", engines[i].Name, out.err)
		}
	}

	if winner >= 0 {
		return outcomes[winner].result, report, nil
	}

	// No definitive answer: synthesize the best anytime one. Engines
	// returning Feasible have verified their incumbents; the global
	// proven lower bound (core payments, completed-but-pruned searches)
	// tightens the gap, possibly all the way to a cooperative Optimal.
	best := -1
	for i, out := range outcomes {
		if out.err != nil || out.result.Status != maxsat.Feasible {
			continue
		}
		if best < 0 || out.result.Cost < outcomes[best].result.Cost {
			best = i
		}
	}
	glb := bounds.ProvenLower()
	if best >= 0 {
		res := outcomes[best].result
		if glb > res.LowerBound {
			res.LowerBound = glb
		}
		if res.LowerBound >= res.Cost {
			// The global lower bound pins the incumbent: optimal, proven
			// jointly by the portfolio.
			res.LowerBound = res.Cost
			res.Status = maxsat.Optimal
		}
		report.Winner = engines[best].Name
		return res, report, nil
	}

	if firstErr != nil {
		return maxsat.Result{LowerBound: glb}, report, firstErr
	}
	if err := ctx.Err(); err != nil {
		return maxsat.Result{LowerBound: glb}, report, fmt.Errorf("%w before cancellation (%w)", ErrNoAnswer, err)
	}
	// Engines finished without error, model or proof (possible only in
	// degenerate cooperative schedules).
	return maxsat.Result{LowerBound: glb}, report, fmt.Errorf("%w: no engine produced one", ErrNoAnswer)
}

// cancelCause names why the race stopped an engine, in precedence
// order: a sibling's definitive win, the shared bounds meeting, the
// parent context expiring.
func cancelCause(siblingWon, boundsClosed, parentDead bool) string {
	switch {
	case siblingWon:
		return "cancelled: sibling engine won"
	case boundsClosed:
		return "cancelled: race closed by shared bounds"
	case parentDead:
		return "cancelled: parent context expired"
	default:
		return "cancelled"
	}
}

// recordEngineSpan attaches an engine's counters to its trace span.
func recordEngineSpan(span obs.Span, res maxsat.Result, err error) {
	if span.Recording() {
		span.SetString("status", res.Status.String())
		span.SetInt("satCalls", res.Stats.SATCalls)
		span.SetInt("conflicts", res.Stats.Conflicts)
		span.SetInt("decisions", res.Stats.Decisions)
		span.SetInt("propagations", res.Stats.Propagations)
		span.SetInt("restarts", res.Stats.Restarts)
		span.SetInt("learntClauses", res.Stats.LearntClauses)
		if len(res.Stats.Bounds) > 0 {
			span.SetValue("bounds", res.Stats.Bounds)
		}
		if err != nil {
			span.SetString("err", err.Error())
		} else if res.Status == maxsat.Optimal || res.Status == maxsat.Feasible {
			span.SetInt("cost", res.Cost)
			span.SetInt("lowerBound", res.LowerBound)
		}
	}
	span.End()
}

// solveIsolated converts a panicking engine into an error so a bug in
// one portfolio member cannot take down the race (the other engines
// keep running and the caller still gets an answer). Engines
// implementing maxsat.ProgressSolver receive the cooperative bound
// channel; the rest run standalone.
func solveIsolated(ctx context.Context, s maxsat.Solver, inst *cnf.WCNF, prog maxsat.Progress) (res maxsat.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = maxsat.Result{}
			err = fmt.Errorf("portfolio: engine panicked: %v", r)
		}
	}()
	if ps, ok := s.(maxsat.ProgressSolver); ok && prog != nil {
		return ps.SolveWithProgress(ctx, inst, prog)
	}
	return s.Solve(ctx, inst)
}

// SolveSequential runs the engines one at a time in order and returns
// the first definitive answer. It exists for deterministic tests and
// single-threaded benchmarking of individual engines. Like Solve it
// falls back to the best anytime incumbent when no engine finishes
// definitively (e.g. under a deadline).
func SolveSequential(ctx context.Context, inst *cnf.WCNF, engines []Engine) (maxsat.Result, Report, error) {
	if len(engines) == 0 {
		return maxsat.Result{}, Report{}, ErrNoEngines
	}
	parent := obs.SpanFromContext(ctx)
	report := Report{Engines: make([]EngineReport, len(engines))}
	start := time.Now()
	var firstErr error
	best := maxsat.Result{Status: maxsat.Unknown}
	bestEngine := ""
	for i, engine := range engines {
		report.Engines[i] = EngineReport{Name: engine.Name}
		span := parent.StartSpan("engine:" + engine.Name)
		t0 := time.Now()
		res, err := engine.Solver.Solve(ctx, inst.Clone())
		recordEngineSpan(span, res, err)
		rep := &report.Engines[i]
		rep.Elapsed = time.Since(t0)
		res.Stats.TagEngine(engine.Name)
		rep.Stats = res.Stats
		rep.Status = res.Status
		rep.Cost = res.Cost
		rep.LowerBound = res.LowerBound
		if res.LowerBound > best.LowerBound {
			best.LowerBound = res.LowerBound
		}
		if err != nil {
			rep.Err = err.Error()
			if cancelledBySibling(err) && ctx.Err() != nil {
				rep.Cancelled = true
				rep.Err = "cancelled: parent context expired: " + rep.Err
			} else if firstErr == nil {
				firstErr = fmt.Errorf("portfolio: engine %s: %w", engine.Name, err)
			}
			continue
		}
		if res.Status.Definitive() {
			rep.Completed = true
			report.Winner = engine.Name
			report.Elapsed = time.Since(start)
			return res, report, nil
		}
		rep.Cancelled = ctx.Err() != nil
		if rep.Cancelled {
			rep.Err = "cancelled: parent context expired"
		}
		if res.Status == maxsat.Feasible && (best.Status != maxsat.Feasible || res.Cost < best.Cost) {
			lb := best.LowerBound
			best = res
			if lb > best.LowerBound {
				best.LowerBound = lb
			}
			bestEngine = engine.Name
		}
	}
	report.Elapsed = time.Since(start)
	if best.Status == maxsat.Feasible {
		if best.LowerBound >= best.Cost {
			best.LowerBound = best.Cost
			best.Status = maxsat.Optimal
		}
		report.Winner = bestEngine
		return best, report, nil
	}
	if firstErr != nil {
		return maxsat.Result{LowerBound: best.LowerBound}, report, firstErr
	}
	if err := ctx.Err(); err != nil {
		return maxsat.Result{LowerBound: best.LowerBound}, report, fmt.Errorf("%w before cancellation (%w)", ErrNoAnswer, err)
	}
	return maxsat.Result{LowerBound: best.LowerBound}, report, fmt.Errorf("%w: no engine produced one", ErrNoAnswer)
}
