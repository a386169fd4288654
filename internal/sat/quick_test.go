package sat

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mpmcs4fta/internal/cnf"
)

// genInstance is a quick.Generator for small random CNF instances in
// the phase-transition density region.
type genInstance struct {
	F *cnf.Formula
}

// Generate implements quick.Generator.
func (genInstance) Generate(r *rand.Rand, _ int) reflect.Value {
	numVars := 3 + r.Intn(10)
	numClauses := 1 + r.Intn(4*numVars)
	f := &cnf.Formula{NumVars: numVars}
	for i := 0; i < numClauses; i++ {
		k := 1 + r.Intn(3)
		clause := make([]cnf.Lit, k)
		for j := range clause {
			l := cnf.Lit(r.Intn(numVars) + 1)
			if r.Intn(2) == 0 {
				l = -l
			}
			clause[j] = l
		}
		f.AddClause(clause...)
	}
	return reflect.ValueOf(genInstance{F: f})
}

func satQuickConfig() *quick.Config {
	return &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(107))}
}

// TestQuickCDCLAgreesWithDPLL: the two engines decide identically, and
// SAT models actually satisfy the formula.
func TestQuickCDCLAgreesWithDPLL(t *testing.T) {
	ctx := context.Background()
	property := func(g genInstance) bool {
		s := New(g.F.NumVars)
		s.AddFormula(g.F)
		cdclStatus, err := s.Solve(ctx)
		if err != nil {
			return false
		}
		d := NewDpll(g.F.NumVars)
		d.AddFormula(g.F)
		dpllStatus, err := d.Solve(ctx)
		if err != nil {
			return false
		}
		if cdclStatus != dpllStatus {
			return false
		}
		if cdclStatus == Sat {
			ok, err := g.F.Eval(s.Model())
			if err != nil || !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, satQuickConfig()); err != nil {
		t.Error(err)
	}
}

// TestQuickSolveIsStable: re-solving the same instance gives the same
// answer (the solver must reset its per-call state correctly).
func TestQuickSolveIsStable(t *testing.T) {
	ctx := context.Background()
	property := func(g genInstance) bool {
		s := New(g.F.NumVars)
		s.AddFormula(g.F)
		first, err := s.Solve(ctx)
		if err != nil {
			return false
		}
		second, err := s.Solve(ctx)
		if err != nil {
			return false
		}
		return first == second
	}
	if err := quick.Check(property, satQuickConfig()); err != nil {
		t.Error(err)
	}
}

// TestQuickAssumptionConsistency: if Solve(a) is Sat, the model honours
// every assumption; if Unsat, the core is a subset of the assumptions.
func TestQuickAssumptionConsistency(t *testing.T) {
	ctx := context.Background()
	property := func(g genInstance, rawAssumps []int8) bool {
		var assumps []cnf.Lit
		seen := make(map[int]bool)
		for _, raw := range rawAssumps {
			v := int(raw)
			if v < 0 {
				v = -v
			}
			v = v%g.F.NumVars + 1
			if seen[v] {
				continue
			}
			seen[v] = true
			l := cnf.Lit(v)
			if raw < 0 {
				l = -l
			}
			assumps = append(assumps, l)
			if len(assumps) == 3 {
				break
			}
		}
		s := New(g.F.NumVars)
		s.AddFormula(g.F)
		status, err := s.Solve(ctx, assumps...)
		if err != nil {
			return false
		}
		switch status {
		case Sat:
			m := s.Model()
			for _, a := range assumps {
				if m[a.Var()] != a.Pos() {
					return false
				}
			}
		case Unsat:
			isAssump := make(map[cnf.Lit]bool, len(assumps))
			for _, a := range assumps {
				isAssump[a] = true
			}
			for _, l := range s.Core() {
				if !isAssump[l] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, satQuickConfig()); err != nil {
		t.Error(err)
	}
}

// TestQuickBudgetMonotone: raising the budget bound can only keep or
// gain satisfiability, never lose it.
func TestQuickBudgetMonotone(t *testing.T) {
	ctx := context.Background()
	property := func(g genInstance, rawBound uint16) bool {
		lits := make([]cnf.Lit, g.F.NumVars)
		weights := make([]int64, g.F.NumVars)
		var total int64
		for v := 1; v <= g.F.NumVars; v++ {
			lits[v-1] = cnf.Lit(v)
			weights[v-1] = int64(v)
			total += int64(v)
		}
		bound := int64(rawBound) % (total + 1)

		solveAt := func(b int64) (Status, bool) {
			s := New(g.F.NumVars)
			s.AddFormula(g.F)
			if err := s.SetBudget(lits, weights, b); err != nil {
				return Unknown, false
			}
			status, err := s.Solve(ctx)
			return status, err == nil
		}
		tight, ok1 := solveAt(bound)
		loose, ok2 := solveAt(total)
		if !ok1 || !ok2 {
			return false
		}
		// tight Sat implies loose Sat.
		return tight != Sat || loose == Sat
	}
	if err := quick.Check(property, satQuickConfig()); err != nil {
		t.Error(err)
	}
}
