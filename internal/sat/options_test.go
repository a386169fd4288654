package sat

import (
	"context"
	"math/rand"
	"testing"

	"mpmcs4fta/internal/cnf"
)

// TestDeterministicAcrossRuns: the solver is fully deterministic — the
// same instance solved twice by fresh solvers yields identical models
// and statistics.
func TestDeterministicAcrossRuns(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(163))
	f := randomCNF(rng, 20, 80, 3)

	solveOnce := func() ([]bool, Stats, Status) {
		s := New(f.NumVars)
		s.AddFormula(f)
		status, err := s.Solve(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return s.Model(), s.Stats(), status
	}
	model1, stats1, status1 := solveOnce()
	model2, stats2, status2 := solveOnce()
	if status1 != status2 || stats1 != stats2 {
		t.Errorf("runs differ: %v/%+v vs %v/%+v", status1, stats1, status2, stats2)
	}
	for i := range model1 {
		if model1[i] != model2[i] {
			t.Fatalf("models differ at %d", i)
		}
	}
}

// TestBudgetBoundZero: a zero budget forces every budgeted literal
// false.
func TestBudgetBoundZero(t *testing.T) {
	ctx := context.Background()
	s := New(3)
	s.AddClause(1, 2, 3)
	if err := s.SetBudget([]cnf.Lit{1, 2}, []int64{5, 5}, 0); err != nil {
		t.Fatal(err)
	}
	status, err := s.Solve(ctx)
	if err != nil || status != Sat {
		t.Fatalf("got %v, %v", status, err)
	}
	m := s.Model()
	if m[1] || m[2] || !m[3] {
		t.Errorf("model %v: budgeted literals must be false, 3 must carry the clause", m)
	}
}

// TestBudgetWithAssumptions: assumptions interact correctly with the
// budget propagator.
func TestBudgetWithAssumptions(t *testing.T) {
	ctx := context.Background()
	s := New(3)
	s.AddClause(1, 2, 3)
	if err := s.SetBudget([]cnf.Lit{1, 2, 3}, []int64{4, 3, 2}, 4); err != nil {
		t.Fatal(err)
	}
	// Assume 1 true (weight 4): nothing else fits.
	status, err := s.Solve(ctx, 1)
	if err != nil || status != Sat {
		t.Fatalf("got %v, %v", status, err)
	}
	m := s.Model()
	if !m[1] || m[2] || m[3] {
		t.Errorf("model %v under assumption 1 and bound 4", m)
	}
	// Assuming both heavy literals exceeds the bound: UNSAT with a core.
	status, err = s.Solve(ctx, 1, 2)
	if err != nil || status != Unsat {
		t.Fatalf("got %v, %v", status, err)
	}
	if len(s.Core()) == 0 {
		t.Error("budget-driven UNSAT under assumptions should produce a core")
	}
}

// TestStatsMonotone: counters only grow across solves on one solver.
func TestStatsMonotone(t *testing.T) {
	ctx := context.Background()
	s := New(0)
	pigeonhole(s, 6, 5)
	if _, err := s.Solve(ctx); err != nil {
		t.Fatal(err)
	}
	first := s.Stats()
	s.AddClause(1) // harmless unit
	if _, err := s.Solve(ctx); err != nil {
		t.Fatal(err)
	}
	second := s.Stats()
	if second.Conflicts < first.Conflicts || second.Decisions < first.Decisions {
		t.Errorf("stats went backwards: %+v then %+v", first, second)
	}
}
