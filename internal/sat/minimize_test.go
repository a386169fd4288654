package sat

import (
	"context"
	"math/rand"
	"testing"

	"mpmcs4fta/internal/cnf"
)

// TestLearntClausesSoundAndAsserting is the differential guard for
// recursive minimisation and binary self-subsumption: on random
// instances, every learnt clause observed right after conflict analysis
// must (a) still be asserting at the backjump level — exactly one
// literal from the current decision level, every other literal
// falsified at a level ≤ btLevel — and (b) be logically implied by the
// original formula, checked with the independent DPLL solver. A
// minimisation bug that drops a required literal breaks (b); one that
// mis-selects the backjump level breaks (a).
func TestLearntClausesSoundAndAsserting(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		numVars := 6 + rng.Intn(6)
		f := randomCNF(rng, numVars, 3+rng.Intn(5*numVars), 3)

		s := New(f.NumVars)
		s.AddFormula(f)
		checked := 0
		s.testOnLearnt = func(learnt []lit, btLevel int) {
			if checked >= 200 {
				return // keep the DPLL cross-check affordable
			}
			checked++

			// (a) asserting shape, inspected before the backjump.
			if s.value(learnt[0]) != lFalse {
				t.Fatalf("trial %d: asserting literal not falsified", trial)
			}
			if lv := s.level[learnt[0].variable()]; lv != s.decisionLevel() {
				t.Fatalf("trial %d: asserting literal at level %d, decision level %d", trial, lv, s.decisionLevel())
			}
			for _, l := range learnt[1:] {
				if s.value(l) != lFalse {
					t.Fatalf("trial %d: learnt literal %v not falsified", trial, toDimacs(l))
				}
				if lv := s.level[l.variable()]; lv > btLevel {
					t.Fatalf("trial %d: learnt literal at level %d above backjump level %d — clause not asserting after backjump",
						trial, lv, btLevel)
				}
			}

			// (b) implication: formula ∧ ¬(learnt) must be UNSAT.
			d := NewDpll(f.NumVars)
			d.AddFormula(f)
			negs := make([]cnf.Lit, len(learnt))
			for i, l := range learnt {
				negs[i] = -toDimacs(l)
			}
			status, err := d.Solve(ctx, negs...)
			if err != nil {
				t.Fatal(err)
			}
			if status != Unsat {
				t.Fatalf("trial %d: learnt clause %v not implied by the formula — minimisation dropped a required literal",
					trial, negs)
			}
		}
		want := bruteForceSat(f)
		status, err := s.Solve(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if (status == Sat) != want {
			t.Fatalf("trial %d: got %v, brute force %v", trial, status, want)
		}
	}
}

// TestRecursiveMinimisationFires asserts the deep minimiser actually
// removes literals on a conflict-rich instance (pigeonhole), i.e. the
// machinery is exercised, not just present.
func TestRecursiveMinimisationFires(t *testing.T) {
	s := New(30)
	pigeonhole(s, 6, 5)
	if status, err := s.Solve(context.Background()); err != nil || status != Unsat {
		t.Fatalf("php(6,5): %v, %v", status, err)
	}
	if s.stats.Minimized == 0 {
		t.Fatal("recursive minimisation removed no literals on php(6,5)")
	}
}

// TestMinimisationWithBudget replays the learnt-clause asserting check
// under the budget propagator, whose temp reason clauses feed conflict
// analysis: minimisation must follow those reasons soundly too.
func TestMinimisationWithBudget(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 30; trial++ {
		numVars := 6 + rng.Intn(5)
		f := randomCNF(rng, numVars, 3*numVars, 3)
		lits := make([]cnf.Lit, numVars)
		weights := make([]int64, numVars)
		var total int64
		for v := 1; v <= numVars; v++ {
			lits[v-1] = cnf.Lit(v)
			weights[v-1] = int64(1 + rng.Intn(7))
			total += weights[v-1]
		}
		bound := total / 3
		want := bruteForceMinCost(f, lits, weights)

		s := New(f.NumVars)
		s.AddFormula(f)
		if err := s.SetBudget(lits, weights, bound); err != nil {
			t.Fatal(err)
		}
		s.testOnLearnt = func(learnt []lit, btLevel int) {
			for _, l := range learnt {
				if s.value(l) != lFalse {
					t.Fatalf("trial %d: learnt literal %v not falsified", trial, toDimacs(l))
				}
			}
			for _, l := range learnt[1:] {
				if lv := s.level[l.variable()]; lv > btLevel {
					t.Fatalf("trial %d: literal level %d above backjump %d", trial, lv, btLevel)
				}
			}
		}
		status, err := s.Solve(ctx)
		if err != nil {
			t.Fatal(err)
		}
		wantSat := want >= 0 && want <= bound
		if (status == Sat) != wantSat {
			t.Fatalf("trial %d: got %v, want sat=%v (minCost %d, bound %d)", trial, status, wantSat, want, bound)
		}
	}
}
