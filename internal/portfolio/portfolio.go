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
// internal/maxsat, each under its own name.
func DefaultEngines() []Engine {
	return []Engine{
		{Name: "wmsu1-strat", Solver: &maxsat.WMSU1{}},
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
	return race(ctx, inst, engines, len(engines))
}

// SolveSequential is Solve with one engine in flight: engine i+1 starts
// only after engine i returned without a definitive answer and without
// closing the shared bounds, so the first engine in slice order that
// settles the instance wins. Engines after the winner never start and
// keep a name-only EngineReport. It gives tests a deterministic winner
// and benchmarks a single-threaded race.
func SolveSequential(ctx context.Context, inst *cnf.WCNF, engines []Engine) (maxsat.Result, Report, error) {
	return race(ctx, inst, engines, 1)
}

// race runs the portfolio with at most inFlight engines at a time,
// starting them in slice order; a finished engine without a definitive
// answer makes room for the next one until some engine wins or the
// shared bounds close (the anytime synthesis then proves the closing
// incumbent optimal, so a later engine could only lose). Engines
// still start after the context is done: a small instance can be
// solved outright before an engine first polls it.
func race(ctx context.Context, inst *cnf.WCNF, engines []Engine, inFlight int) (maxsat.Result, Report, error) {
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
	report := Report{Engines: make([]EngineReport, len(engines))}
	for i, e := range engines {
		report.Engines[i] = EngineReport{Name: e.Name}
	}
	outcomes := make([]*outcome, len(engines)) // nil: never started
	start := time.Now()

	run := func(e Engine) *outcome {
		span := parent.StartSpan("engine:" + e.Name)
		engineCtx := runCtx
		if telemetryOn {
			engineCtx = obs.ContextWithEngineName(runCtx, e.Name)
		}
		if bus.Enabled() {
			bus.Publish(obs.EngineStarted{Engine: e.Name})
		}
		t0 := time.Now()
		res, err := solveIsolated(engineCtx, e.Solver, inst.Clone(), bounds.ForEngine(e.Name))
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
		return &outcome{result: res, err: err, elapsed: time.Since(t0)}
	}

	// Engines [0, workers) start unconditionally, one per worker
	// goroutine. A worker whose engine ended without a definitive
	// answer takes the next unstarted engine while nobody has won and
	// the bounds are open. The caller only waits: running worker 0 on
	// it changes which engines the scheduler runs first, and on 2 vCPUs
	// that slowed the benchmark's topk-deep median by a quarter.
	workers := min(inFlight, len(engines))
	var (
		mu     sync.Mutex
		next   = workers
		winner = -1
	)
	worker := func(i int) {
		for more := true; more; {
			out := run(engines[i])
			mu.Lock()
			outcomes[i] = out
			if winner < 0 && out.err == nil && out.result.Status.Definitive() {
				winner = i
				report.Winner = engines[i].Name
				report.Elapsed = time.Since(start)
				cancel() // stop the stragglers
			}
			if more = winner < 0 && !bounds.Closed() && next < len(engines); more {
				i = next
				next++
			}
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			worker(i)
		}(i)
	}
	wg.Wait()
	report.Coop = bounds.Traffic()
	if report.Elapsed == 0 {
		report.Elapsed = time.Since(start)
	}

	// Classify every member now that the race's end cause is known.
	boundsClosed := bounds.Closed()
	parentDead := ctx.Err() != nil
	var firstErr error
	for i, out := range outcomes {
		if out == nil {
			continue // never started
		}
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
		if out == nil || out.err != nil || out.result.Status != maxsat.Feasible {
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
