package sat

import (
	"context"
	"math/rand"
	"testing"

	"mpmcs4fta/internal/cnf"
)

// TestIncrementalStress interleaves clause additions, assumption solves
// and plain solves on one CDCL solver, checking every answer against a
// fresh DPLL solver built from scratch — the strongest guard against
// state leaking between incremental calls (stale watches, trail
// corruption, learnt clauses outliving their justification).
func TestIncrementalStress(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 25; trial++ {
		numVars := 5 + rng.Intn(8)
		s := New(numVars)
		var clauses []cnf.Clause

		steps := 12 + rng.Intn(15)
		for step := 0; step < steps; step++ {
			switch rng.Intn(3) {
			case 0: // add a random clause
				k := 1 + rng.Intn(3)
				clause := make(cnf.Clause, k)
				for i := range clause {
					l := cnf.Lit(rng.Intn(numVars) + 1)
					if rng.Intn(2) == 0 {
						l = -l
					}
					clause[i] = l
				}
				clauses = append(clauses, clause)
				s.AddClause(clause...)
			case 1: // solve without assumptions
				got, err := s.Solve(ctx)
				if err != nil {
					t.Fatal(err)
				}
				want := freshDPLL(t, ctx, numVars, clauses)
				if got != want {
					t.Fatalf("trial %d step %d: CDCL %v, fresh DPLL %v (clauses %v)",
						trial, step, got, want, clauses)
				}
				if got == Sat {
					assertModelSatisfies(t, s.Model(), clauses)
				}
			default: // solve under random assumptions
				var assumps []cnf.Lit
				used := make(map[int]bool)
				for len(assumps) < 2 {
					v := rng.Intn(numVars) + 1
					if used[v] {
						continue
					}
					used[v] = true
					l := cnf.Lit(v)
					if rng.Intn(2) == 0 {
						l = -l
					}
					assumps = append(assumps, l)
				}
				got, err := s.Solve(ctx, assumps...)
				if err != nil {
					t.Fatal(err)
				}
				want := freshDPLLAssume(t, ctx, numVars, clauses, assumps)
				if got != want {
					t.Fatalf("trial %d step %d: CDCL %v, fresh DPLL %v under %v",
						trial, step, got, want, assumps)
				}
			}
		}
	}
}

func freshDPLL(t *testing.T, ctx context.Context, numVars int, clauses []cnf.Clause) Status {
	t.Helper()
	d := NewDpll(numVars)
	for _, c := range clauses {
		d.AddClause(c...)
	}
	status, err := d.Solve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return status
}

func freshDPLLAssume(t *testing.T, ctx context.Context, numVars int, clauses []cnf.Clause, assumps []cnf.Lit) Status {
	t.Helper()
	d := NewDpll(numVars)
	for _, c := range clauses {
		d.AddClause(c...)
	}
	status, err := d.Solve(ctx, assumps...)
	if err != nil {
		t.Fatal(err)
	}
	return status
}

func assertModelSatisfies(t *testing.T, model []bool, clauses []cnf.Clause) {
	t.Helper()
	for _, clause := range clauses {
		ok := false
		for _, l := range clause {
			if l.Var() < len(model) && model[l.Var()] == l.Pos() {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("model violates clause %v", clause)
		}
	}
}

// TestIncrementalBudgetStress mixes budget tightening with clause
// additions, validating against brute force at every step.
func TestIncrementalBudgetStress(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(137))
	for trial := 0; trial < 20; trial++ {
		numVars := 4 + rng.Intn(5)
		s := New(numVars)
		var clauses []cnf.Clause

		lits := make([]cnf.Lit, numVars)
		weights := make([]int64, numVars)
		var total int64
		for v := 1; v <= numVars; v++ {
			lits[v-1] = cnf.Lit(v)
			weights[v-1] = int64(1 + rng.Intn(9))
			total += weights[v-1]
		}
		if err := s.SetBudget(lits, weights, total); err != nil {
			t.Fatal(err)
		}
		bound := total

		for step := 0; step < 10; step++ {
			if rng.Intn(2) == 0 {
				clause := cnf.Clause{
					cnf.Lit(rng.Intn(numVars) + 1),
					-cnf.Lit(rng.Intn(numVars) + 1),
				}
				clauses = append(clauses, clause)
				s.AddClause(clause...)
			} else if bound > 0 {
				bound -= int64(rng.Intn(3))
				if bound < 0 {
					bound = 0
				}
				if err := s.SetBudgetBound(bound); err != nil {
					t.Fatal(err)
				}
			}
			got, err := s.Solve(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteForceBudget(numVars, clauses, weights, bound)
			if (got == Sat) != want {
				t.Fatalf("trial %d step %d: CDCL %v, brute force sat=%v (bound %d)",
					trial, step, got, want, bound)
			}
		}
	}
}

func bruteForceBudget(numVars int, clauses []cnf.Clause, weights []int64, bound int64) bool {
	f := cnf.Formula{NumVars: numVars, Clauses: clauses}
	assign := make([]bool, numVars+1)
	for mask := 0; mask < 1<<uint(numVars); mask++ {
		var cost int64
		for v := 1; v <= numVars; v++ {
			assign[v] = mask&(1<<uint(v-1)) != 0
			if assign[v] {
				cost += weights[v-1]
			}
		}
		if cost > bound {
			continue
		}
		if ok, _ := f.Eval(assign); ok {
			return true
		}
	}
	return false
}

// TestOrderHeapAfterGrowth interleaves AddVars, AddClause (including
// clauses over not-yet-declared variables) and Solve, and after every
// step checks the VSIDS order heap. Growth inserts only the new
// variables, relying on Solve's final cancelUntil(0) to re-insert every
// variable it unassigned; so every unassigned variable must be in the
// heap, once, at a consistent index. The heap may also keep variables
// fixed at level 0, which branching skips when it pops them.
func TestOrderHeapAfterGrowth(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(23))
	s := New(3)
	randLit := func(maxVar int) cnf.Lit {
		l := cnf.Lit(rng.Intn(maxVar) + 1)
		if rng.Intn(2) == 0 {
			l = -l
		}
		return l
	}
	for step := 0; step < 400; step++ {
		switch rng.Intn(4) {
		case 0:
			s.AddVars(1 + rng.Intn(3))
		case 1:
			// Up to two variables past NumVars: AddClause grows too.
			maxVar := s.NumVars() + rng.Intn(3)
			clause := make([]cnf.Lit, 2+rng.Intn(3))
			for i := range clause {
				clause[i] = randLit(maxVar)
			}
			s.AddClause(clause...)
		default:
			var assumps []cnf.Lit
			for i := rng.Intn(3); i > 0; i-- {
				assumps = append(assumps, randLit(s.NumVars()))
			}
			if _, err := s.Solve(ctx, assumps...); err != nil {
				t.Fatal(err)
			}
		}
		checkOrderHeap(t, s, step)
		if s.unsat {
			s = New(3)
		}
	}
}

func checkOrderHeap(t *testing.T, s *Solver, step int) {
	t.Helper()
	h := s.order
	if s.decisionLevel() != 0 {
		t.Fatalf("step %d: solver left at decision level %d", step, s.decisionLevel())
	}
	if len(h.indices) != s.numVars {
		t.Fatalf("step %d: heap indexes %d variables, solver has %d", step, len(h.indices), s.numVars)
	}
	inHeap := make([]bool, s.numVars)
	for i, v := range h.heap {
		if inHeap[v] {
			t.Fatalf("step %d: variable %d is in the heap twice", step, v)
		}
		inHeap[v] = true
		if h.indices[v] != i {
			t.Fatalf("step %d: variable %d at heap position %d has index %d", step, v, i, h.indices[v])
		}
		if i > 0 && h.less(i, (i-1)/2) {
			t.Fatalf("step %d: heap order broken at position %d", step, i)
		}
	}
	for v := 0; v < s.numVars; v++ {
		switch {
		case !inHeap[v] && h.indices[v] != -1:
			t.Fatalf("step %d: variable %d is absent but has index %d", step, v, h.indices[v])
		case !inHeap[v] && s.assigns[v] == lUndef:
			t.Fatalf("step %d: unassigned variable %d is missing from the heap", step, v)
		case inHeap[v] && s.assigns[v] != lUndef && s.level[v] != 0:
			t.Fatalf("step %d: variable %d assigned at level %d is in the heap", step, v, s.level[v])
		}
	}
}
