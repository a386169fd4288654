package core

import (
	"context"
	"errors"
	"testing"

	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/gen"
	"mpmcs4fta/internal/maxsat"
	"mpmcs4fta/internal/portfolio"
)

// firstModelCancel cancels a context on the first published model,
// turning any cooperative engine into a deterministic anytime one.
type firstModelCancel struct{ cancel context.CancelFunc }

func (p firstModelCancel) PublishModel(int64, []bool) { p.cancel() }
func (p firstModelCancel) PublishLower(int64)         {}
func (p firstModelCancel) BestKnown() (int64, bool)   { return 0, false }
func (p firstModelCancel) ProvenLower() int64         { return 0 }

// anytimeSolver wraps a cooperative engine so its solve is interrupted
// right after the first incumbent — the deterministic stand-in for a
// deadline expiring mid-search.
type anytimeSolver struct{ inner maxsat.ProgressSolver }

func (w anytimeSolver) Name() string { return "anytime-fake" }

func (w anytimeSolver) Solve(ctx context.Context, inst *cnf.WCNF) (maxsat.Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	return w.inner.SolveWithProgress(ctx, inst, firstModelCancel{cancel})
}

func anytimeEngines() []portfolio.Engine {
	return []portfolio.Engine{{Name: "anytime-fake", Solver: anytimeSolver{inner: &maxsat.LinearSU{}}}}
}

// TestAnalyzeFeasibleDecodes: a FEASIBLE solver answer must decode to a
// full Solution document — genuine minimal cut set, FEASIBLE status,
// gap fields in probability space — instead of an error.
func TestAnalyzeFeasibleDecodes(t *testing.T) {
	tree := gen.FPS()
	sol, err := Analyze(context.Background(), tree, Options{Sequential: true, Engines: anytimeEngines()})
	if err != nil {
		t.Fatalf("anytime analysis failed: %v", err)
	}
	if sol.Status != maxsat.Feasible.String() {
		t.Fatalf("status %q, want FEASIBLE", sol.Status)
	}
	if len(sol.MPMCS) == 0 {
		t.Fatal("anytime solution reports no cut set")
	}
	// The decoded set must be a sound minimal cut set regardless of
	// optimality; VerifySolution re-checks minimality, membership and
	// the probability arithmetic.
	if err := VerifySolution(tree, sol); err != nil {
		t.Fatalf("anytime solution failed verification: %v", err)
	}
	if sol.OptimalityGap < 0 {
		t.Errorf("optimality gap %v is negative", sol.OptimalityGap)
	}
	if sol.ProbabilityUpperBound <= 0 || sol.ProbabilityUpperBound > 1 {
		t.Errorf("probability upper bound %v outside (0,1]", sol.ProbabilityUpperBound)
	}
	// No cut set can beat the proven upper bound — in particular not the
	// reported one.
	if sol.Probability > sol.ProbabilityUpperBound*(1+1e-9) {
		t.Errorf("reported p=%v exceeds its own upper bound %v", sol.Probability, sol.ProbabilityUpperBound)
	}
	// FPS optimum is 0.02; an anytime answer may only be less probable.
	if sol.Probability > 0.02*(1+1e-9) {
		t.Errorf("anytime p=%v beats the FPS optimum 0.02", sol.Probability)
	}
}

// TestAnalyzeTopKStopsAfterFeasible: an anytime round is not proven
// maximal, so enumeration must report it and stop rather than emit
// later rounds in unprovable order.
func TestAnalyzeTopKStopsAfterFeasible(t *testing.T) {
	sols, err := AnalyzeTopK(context.Background(), gen.FPS(), 5, Options{Sequential: true, Engines: anytimeEngines()})
	if err != nil {
		t.Fatalf("anytime top-k failed: %v", err)
	}
	if len(sols) != 1 {
		t.Fatalf("got %d solutions after a FEASIBLE round, want 1", len(sols))
	}
	if sols[0].Status != maxsat.Feasible.String() {
		t.Errorf("status %q, want FEASIBLE", sols[0].Status)
	}
}

// TestAnalyzeAboveAnytimeBelowThreshold: an anytime round whose cut set
// falls below τ while its upper bound does not proves nothing about the
// sets above τ (the exact run finds two). With nothing collected, that
// is "no answer", never an empty "nothing reaches τ" result.
func TestAnalyzeAboveAnytimeBelowThreshold(t *testing.T) {
	sols, err := AnalyzeAbove(context.Background(), gen.FPS(), 0.005, Options{Sequential: true, Engines: anytimeEngines()})
	if !errors.Is(err, ErrNoAnswer) {
		t.Fatalf("got %d solutions, err %v; want ErrNoAnswer", len(sols), err)
	}
}
