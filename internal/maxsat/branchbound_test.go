package maxsat

import (
	"context"
	"testing"

	"mpmcs4fta/internal/cnf"
)

// requireBranchBoundOptimum checks BranchBound against exhaustive
// enumeration: Infeasible exactly when no assignment satisfies the
// hard clauses, otherwise Optimal at the enumerated cost with a model
// that costs what the engine reports.
func requireBranchBoundOptimum(t *testing.T, inst *cnf.WCNF) {
	t.Helper()
	res, err := (&BranchBound{}).Solve(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForceOptimum(inst)
	if want < 0 {
		if res.Status != Infeasible {
			t.Fatalf("status %v, want INFEASIBLE", res.Status)
		}
		return
	}
	if res.Status != Optimal || res.Cost != want {
		t.Fatalf("got %v cost %d, want OPTIMAL cost %d", res.Status, res.Cost, want)
	}
	if cost, err := inst.Cost(res.Model); err != nil || cost != res.Cost {
		t.Fatalf("model costs %d (%v), engine reported %d", cost, err, res.Cost)
	}
}

// TestBranchBoundClauseShapes covers the clause shapes the counters
// must handle the way a clause-by-clause rescan did: a clause counts
// literal occurrences, so a duplicated literal is two occurrences and a
// clause holding x and ¬x is satisfied by either value of x.
func TestBranchBoundClauseShapes(t *testing.T) {
	lits := func(ls ...int) []cnf.Lit {
		out := make([]cnf.Lit, len(ls))
		for i, l := range ls {
			out[i] = cnf.Lit(l)
		}
		return out
	}
	type soft struct {
		w    int64
		lits []cnf.Lit
	}
	tests := []struct {
		name string
		vars int
		hard [][]cnf.Lit
		soft []soft
	}{
		{"empty hard clause", 2, [][]cnf.Lit{lits(1, 2), lits()}, []soft{{3, lits(-1)}}},
		{"duplicate literals", 3,
			[][]cnf.Lit{lits(1, 1), lits(-2, -2, 3), lits(3, 3, 3)},
			[]soft{{5, lits(-1, -1)}, {2, lits(-3)}, {4, lits(2, 2)}}},
		{"tautologies", 3,
			[][]cnf.Lit{lits(1, -1), lits(2, -2, 3), lits(-3, 1, 3)},
			[]soft{{5, lits(-1)}, {1, lits(3, -3)}, {2, lits(-2)}}},
		{"contradicting unit hards", 2, [][]cnf.Lit{lits(1), lits(2, 1), lits(-1)}, []soft{{1, lits(2)}}},
		{"unit hards fix the optimum", 3, [][]cnf.Lit{lits(1), lits(-2), lits(-1, 2, 3)}, []soft{{4, lits(-1)}, {2, lits(-3)}, {1, lits(2)}}},
		{"empty soft clause", 2, [][]cnf.Lit{lits(1, 2)}, []soft{{7, lits()}, {3, lits(-1)}, {2, lits(-2)}}},
		{"non-unit softs sharing variables", 4,
			[][]cnf.Lit{lits(1, 2, 3), lits(-1, 4)},
			[]soft{{6, lits(-1, -2)}, {5, lits(-2, -3)}, {4, lits(-3, -1)}, {3, lits(-4, 2)}, {2, lits(1, 3, -4)}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			inst := &cnf.WCNF{NumVars: tt.vars}
			for _, h := range tt.hard {
				inst.AddHard(h...)
			}
			for _, s := range tt.soft {
				inst.AddSoft(s.w, s.lits...)
			}
			requireBranchBoundOptimum(t, inst)
		})
	}
}

// fixedIncumbent is a Progress whose siblings already hold a model of
// the given cost.
type fixedIncumbent struct{ cost int64 }

func (fixedIncumbent) PublishModel(int64, []bool) {}
func (fixedIncumbent) PublishLower(int64)         {}
func (p fixedIncumbent) BestKnown() (int64, bool) { return p.cost, true }
func (fixedIncumbent) ProvenLower() int64         { return 0 }

// TestBranchBoundCooperativePrune: once the engine reads a sibling's
// incumbent better than its own, it prunes against it. Completing the
// search then proves only optimum ≥ that bound, so the engine reports
// its own model as Feasible with the bound it pruned with.
func TestBranchBoundCooperativePrune(t *testing.T) {
	// C_17 needs more than the 512 nodes between polls of BestKnown
	// before it finds its optimum of 9 on its own, so the sibling's
	// 9 arrives while the engine's best is still worse.
	inst := vertexCoverWCNF(17)
	const sibling = 9
	res, err := (&BranchBound{}).SolveWithProgress(context.Background(), inst, fixedIncumbent{sibling})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Feasible {
		t.Fatalf("status %v, want FEASIBLE", res.Status)
	}
	if res.LowerBound != sibling {
		t.Errorf("lower bound %d, want the pruning bound %d", res.LowerBound, sibling)
	}
	if res.Cost <= sibling {
		t.Errorf("cost %d, want above the sibling's %d (it pruned every model of cost ≥ %d)", res.Cost, sibling, sibling)
	}
	requireSoundFeasible(t, inst, res, sibling)
}

// FuzzBranchBound decodes bytes into a WCNF over at most 12 variables —
// empty, unit, duplicated and tautological clauses, hard and soft alike —
// and checks BranchBound against exhaustive enumeration.
func FuzzBranchBound(f *testing.F) {
	f.Add([]byte{3, 0x00, 0x03, 2, 3, 0x05, 9, 4})                       // empty hard, unit hard, unit soft
	f.Add([]byte{2, 0x02, 2, 0x02, 3, 0x03, 7})                          // contradicting unit hards
	f.Add([]byte{4, 0x04, 2, 2, 0x04, 4, 5, 0x05, 1, 3, 3, 0x01, 6})     // duplicates, tautology, empty soft
	f.Add([]byte{12, 0x06, 1, 3, 5, 0x07, 3, 2, 4, 6, 0x07, 8, 3, 7, 9}) // non-unit softs sharing variables
	f.Fuzz(func(t *testing.T, data []byte) {
		requireBranchBoundOptimum(t, decodeWCNF(data))
	})
}

// decodeWCNF reads a variable count (1..12), then clauses: a header
// byte whose low bit picks hard or soft and whose next bits give the
// length (0..4), a weight byte for softs, and one byte per literal
// (low bit the sign). At most 24 clauses are read.
func decodeWCNF(data []byte) *cnf.WCNF {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	b, _ := next()
	inst := &cnf.WCNF{NumVars: 1 + int(b)%12}
	for clauses := 0; clauses < 24; clauses++ {
		header, ok := next()
		if !ok {
			break
		}
		weight := int64(1)
		if header&1 == 1 {
			w, _ := next()
			weight += int64(w % 32)
		}
		clause := make([]cnf.Lit, int(header>>1)%5)
		for i := range clause {
			b, _ := next()
			l := cnf.Lit(1 + int(b>>1)%inst.NumVars)
			if b&1 == 1 {
				l = -l
			}
			clause[i] = l
		}
		if header&1 == 1 {
			inst.AddSoft(weight, clause...)
		} else {
			inst.AddHard(clause...)
		}
	}
	return inst
}
