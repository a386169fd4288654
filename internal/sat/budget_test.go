package sat

import (
	"context"
	"math/rand"
	"testing"

	"mpmcs4fta/internal/cnf"
)

// bruteForceMinCost finds the minimum of Σ weights[i]·[lits[i] true] over
// all models of f, or -1 when f is unsatisfiable.
func bruteForceMinCost(f *cnf.Formula, lits []cnf.Lit, weights []int64) int64 {
	n := f.NumVars
	best := int64(-1)
	assign := make([]bool, n+1)
	for mask := 0; mask < 1<<uint(n); mask++ {
		for v := 1; v <= n; v++ {
			assign[v] = mask&(1<<uint(v-1)) != 0
		}
		ok, _ := f.Eval(assign)
		if !ok {
			continue
		}
		var cost int64
		for i, l := range lits {
			if assign[l.Var()] == l.Pos() {
				cost += weights[i]
			}
		}
		if best < 0 || cost < best {
			best = cost
		}
	}
	return best
}

func TestBudgetValidation(t *testing.T) {
	s := New(2)
	if err := s.SetBudget([]cnf.Lit{1}, []int64{1, 2}, 5); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := s.SetBudget([]cnf.Lit{1}, []int64{0}, 5); err == nil {
		t.Error("zero weight accepted")
	}
	if err := s.SetBudget([]cnf.Lit{1, 1}, []int64{1, 2}, 5); err == nil {
		t.Error("duplicate literal accepted")
	}
	if err := s.SetBudgetBound(3); err == nil {
		t.Error("SetBudgetBound without budget accepted")
	}
	if err := s.SetBudget([]cnf.Lit{1, -2}, []int64{3, 4}, 5); err != nil {
		t.Fatalf("valid budget rejected: %v", err)
	}
	if err := s.SetBudgetBound(6); err == nil {
		t.Error("raising the bound should be rejected")
	}
	if err := s.SetBudgetBound(2); err != nil {
		t.Errorf("tightening the bound failed: %v", err)
	}
}

func TestBudgetWeightOverflowRejected(t *testing.T) {
	s := New(2)
	err := s.SetBudget([]cnf.Lit{1, 2}, []int64{1 << 62, 1 << 62}, 5)
	if err == nil {
		t.Fatal("total weight 2^63 accepted; the budget sum wrapped int64")
	}
}

func TestBudgetRefreshOnlyLowers(t *testing.T) {
	ctx := context.Background()
	// x1 ∨ x2, weights 5 and 3: minimum cost 3.
	build := func(bound int64) *Solver {
		s := New(2)
		s.AddClause(1, 2)
		if err := s.SetBudget([]cnf.Lit{1, 2}, []int64{5, 3}, bound); err != nil {
			t.Fatal(err)
		}
		return s
	}

	// A refresh tightening the bound below the optimum flips the answer
	// to Unsat even though the initial bound admits a model.
	s := build(7)
	s.SetBudgetRefresh(func() (int64, bool) { return 2, true })
	status, err := s.Solve(ctx)
	if err != nil || status != Unsat {
		t.Errorf("refresh to 2: want UNSAT, got %v, %v", status, err)
	}
	if got := s.BudgetBound(); got != 2 {
		t.Errorf("budget bound after refresh: got %d, want 2", got)
	}

	// A refresh offering a looser bound must be ignored: the bound never
	// rises, so an Unsat-proving bound stays proving.
	s = build(2)
	s.SetBudgetRefresh(func() (int64, bool) { return 10, true })
	status, err = s.Solve(ctx)
	if err != nil || status != Unsat {
		t.Errorf("refresh to 10 over bound 2: want UNSAT, got %v, %v", status, err)
	}
	if got := s.BudgetBound(); got != 2 {
		t.Errorf("budget bound was raised by refresh: got %d, want 2", got)
	}
}

func TestBudgetSimple(t *testing.T) {
	ctx := context.Background()
	// x1 ∨ x2, weights 5 and 3 on the positive literals.
	build := func(bound int64) *Solver {
		s := New(2)
		s.AddClause(1, 2)
		if err := s.SetBudget([]cnf.Lit{1, 2}, []int64{5, 3}, bound); err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Minimum achievable cost is 3 (set x2 only).
	status, err := build(3).Solve(ctx)
	if err != nil || status != Sat {
		t.Errorf("bound 3: %v, %v", status, err)
	}
	status, err = build(2).Solve(ctx)
	if err != nil || status != Unsat {
		t.Errorf("bound 2: %v, %v", status, err)
	}
	s := build(7)
	status, err = s.Solve(ctx)
	if err != nil || status != Sat {
		t.Fatalf("bound 7: %v, %v", status, err)
	}
	m := s.Model()
	var cost int64
	if m[1] {
		cost += 5
	}
	if m[2] {
		cost += 3
	}
	if cost > 7 {
		t.Errorf("model cost %d exceeds bound 7", cost)
	}
}

func TestBudgetAgainstBruteForce(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		numVars := 4 + rng.Intn(6)
		f := randomCNF(rng, numVars, 2*numVars, 3)
		var (
			lits    []cnf.Lit
			weights []int64
		)
		for v := 1; v <= numVars; v++ {
			if rng.Intn(3) == 0 {
				continue // leave some variables un-budgeted
			}
			l := cnf.Lit(v)
			if rng.Intn(4) == 0 {
				l = -l
			}
			lits = append(lits, l)
			weights = append(weights, int64(1+rng.Intn(10)))
		}
		if len(lits) == 0 {
			continue
		}
		minCost := bruteForceMinCost(f, lits, weights)

		var total int64
		for _, w := range weights {
			total += w
		}
		for _, bound := range []int64{0, minCost - 1, minCost, minCost + 2, total} {
			if bound < 0 {
				continue
			}
			s := New(f.NumVars)
			s.AddFormula(f)
			if err := s.SetBudget(lits, weights, bound); err != nil {
				t.Fatal(err)
			}
			status, err := s.Solve(ctx)
			if err != nil {
				t.Fatal(err)
			}
			wantSat := minCost >= 0 && minCost <= bound
			if (status == Sat) != wantSat {
				t.Fatalf("trial %d bound %d: got %v, want sat=%v (minCost %d)",
					trial, bound, status, wantSat, minCost)
			}
			if status == Sat {
				ok, _ := f.Eval(s.Model())
				if !ok {
					t.Fatalf("trial %d: model violates clauses", trial)
				}
				var cost int64
				m := s.Model()
				for i, l := range lits {
					if m[l.Var()] == l.Pos() {
						cost += weights[i]
					}
				}
				if cost > bound {
					t.Fatalf("trial %d: model cost %d exceeds bound %d", trial, cost, bound)
				}
			}
		}
	}
}

// TestBudgetLinearSearch drives the exact loop LinearSU uses: repeatedly
// tighten the bound below the last model's cost until Unsat; the last
// model must be optimal.
func TestBudgetLinearSearch(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		numVars := 4 + rng.Intn(5)
		f := randomCNF(rng, numVars, numVars+rng.Intn(numVars), 3)
		lits := make([]cnf.Lit, numVars)
		weights := make([]int64, numVars)
		var total int64
		for v := 1; v <= numVars; v++ {
			lits[v-1] = cnf.Lit(v)
			weights[v-1] = int64(1 + rng.Intn(20))
			total += weights[v-1]
		}
		want := bruteForceMinCost(f, lits, weights)

		s := New(f.NumVars)
		s.AddFormula(f)
		if err := s.SetBudget(lits, weights, total); err != nil {
			t.Fatal(err)
		}
		best := int64(-1)
		for {
			status, err := s.Solve(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if status != Sat {
				break
			}
			m := s.Model()
			var cost int64
			for i, l := range lits {
				if m[l.Var()] == l.Pos() {
					cost += weights[i]
				}
			}
			best = cost
			if cost == 0 {
				break
			}
			if err := s.SetBudgetBound(cost - 1); err != nil {
				t.Fatal(err)
			}
		}
		if best != want {
			t.Fatalf("trial %d: linear search found %d, brute force %d", trial, best, want)
		}
	}
}
