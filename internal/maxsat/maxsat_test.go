package maxsat

import (
	"context"
	"math/rand"
	"testing"

	"mpmcs4fta/internal/cnf"
)

func engines() []Solver {
	return []Solver{
		&LinearSU{},
		&WMSU1{},
		&BranchBound{},
	}
}

// bruteForceOptimum computes the optimal cost by enumeration; -1 when
// the hard clauses are unsatisfiable.
func bruteForceOptimum(inst *cnf.WCNF) int64 {
	hard := cnf.Formula{NumVars: inst.NumVars, Clauses: inst.Hard}
	best := int64(-1)
	assign := make([]bool, inst.NumVars+1)
	for mask := 0; mask < 1<<uint(inst.NumVars); mask++ {
		for v := 1; v <= inst.NumVars; v++ {
			assign[v] = mask&(1<<uint(v-1)) != 0
		}
		ok, _ := hard.Eval(assign)
		if !ok {
			continue
		}
		cost, _ := inst.Cost(assign)
		if best < 0 || cost < best {
			best = cost
		}
	}
	return best
}

func randomWCNF(rng *rand.Rand, numVars int) *cnf.WCNF {
	var w cnf.WCNF
	w.NumVars = numVars
	numHard := rng.Intn(2 * numVars)
	for i := 0; i < numHard; i++ {
		k := 2 + rng.Intn(2)
		clause := make([]cnf.Lit, k)
		for j := range clause {
			l := cnf.Lit(rng.Intn(numVars) + 1)
			if rng.Intn(2) == 0 {
				l = -l
			}
			clause[j] = l
		}
		w.AddHard(clause...)
	}
	numSoft := 1 + rng.Intn(2*numVars)
	for i := 0; i < numSoft; i++ {
		k := 1 + rng.Intn(2)
		clause := make([]cnf.Lit, k)
		for j := range clause {
			l := cnf.Lit(rng.Intn(numVars) + 1)
			if rng.Intn(2) == 0 {
				l = -l
			}
			clause[j] = l
		}
		w.AddSoft(int64(1+rng.Intn(100)), clause...)
	}
	return &w
}

func TestEnginesAgainstBruteForce(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 60; trial++ {
		inst := randomWCNF(rng, 4+rng.Intn(5))
		want := bruteForceOptimum(inst)
		for _, engine := range engines() {
			res, err := engine.Solve(ctx, inst)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, engine.Name(), err)
			}
			if want < 0 {
				if res.Status != Infeasible {
					t.Fatalf("trial %d %s: got %v, want INFEASIBLE", trial, engine.Name(), res.Status)
				}
				continue
			}
			if res.Status != Optimal {
				t.Fatalf("trial %d %s: got %v, want OPTIMAL", trial, engine.Name(), res.Status)
			}
			if res.Cost != want {
				t.Fatalf("trial %d %s: cost %d, want %d", trial, engine.Name(), res.Cost, want)
			}
			cost, err := inst.Cost(res.Model)
			if err != nil || cost != want {
				t.Fatalf("trial %d %s: model re-check failed: cost=%d err=%v", trial, engine.Name(), cost, err)
			}
		}
	}
}

func TestEnginesUnitSofts(t *testing.T) {
	// The MPMCS shape: hard structure + unit softs over every variable.
	ctx := context.Background()
	var inst cnf.WCNF
	// Hard: (1 ∧ 2) ∨ 3 encoded directly: (1∨3)(2∨3).
	inst.AddHard(1, 3)
	inst.AddHard(2, 3)
	// Prefer all variables false; weights favour falsifying 3 alone.
	inst.AddSoft(2, -1)
	inst.AddSoft(3, -2)
	inst.AddSoft(10, -3)
	// Optimal: set 1 and 2 (cost 5) rather than 3 (cost 10).
	for _, engine := range engines() {
		res, err := engine.Solve(ctx, &inst)
		if err != nil {
			t.Fatalf("%s: %v", engine.Name(), err)
		}
		if res.Status != Optimal || res.Cost != 5 {
			t.Errorf("%s: status %v cost %d, want OPTIMAL 5", engine.Name(), res.Status, res.Cost)
		}
		if !res.Model[1] || !res.Model[2] || res.Model[3] {
			t.Errorf("%s: model %v, want {1,2}", engine.Name(), res.Model)
		}
	}
}

func TestEnginesInfeasible(t *testing.T) {
	ctx := context.Background()
	var inst cnf.WCNF
	inst.AddHard(1)
	inst.AddHard(-1)
	inst.AddSoft(1, 2)
	for _, engine := range engines() {
		res, err := engine.Solve(ctx, &inst)
		if err != nil {
			t.Fatalf("%s: %v", engine.Name(), err)
		}
		if res.Status != Infeasible {
			t.Errorf("%s: got %v, want INFEASIBLE", engine.Name(), res.Status)
		}
	}
}

func TestEnginesNoSofts(t *testing.T) {
	ctx := context.Background()
	var inst cnf.WCNF
	inst.AddHard(1, 2)
	for _, engine := range engines() {
		res, err := engine.Solve(ctx, &inst)
		if err != nil {
			t.Fatalf("%s: %v", engine.Name(), err)
		}
		if res.Status != Optimal || res.Cost != 0 {
			t.Errorf("%s: status %v cost %d, want OPTIMAL 0", engine.Name(), res.Status, res.Cost)
		}
	}
}

func TestEnginesAllSoftsSatisfiable(t *testing.T) {
	ctx := context.Background()
	var inst cnf.WCNF
	inst.AddHard(1, 2)
	inst.AddSoft(3, 1)
	inst.AddSoft(4, 2)
	for _, engine := range engines() {
		res, err := engine.Solve(ctx, &inst)
		if err != nil {
			t.Fatalf("%s: %v", engine.Name(), err)
		}
		if res.Cost != 0 {
			t.Errorf("%s: cost %d, want 0", engine.Name(), res.Cost)
		}
	}
}

func TestEnginesNonUnitSofts(t *testing.T) {
	ctx := context.Background()
	var inst cnf.WCNF
	inst.AddHard(-1, -2)  // not both
	inst.AddSoft(7, 1, 2) // want at least one
	inst.AddSoft(3, 1)
	inst.AddSoft(3, 2)
	// Best: set exactly one of {1,2}: falsifies one weight-3 soft.
	for _, engine := range engines() {
		res, err := engine.Solve(ctx, &inst)
		if err != nil {
			t.Fatalf("%s: %v", engine.Name(), err)
		}
		if res.Status != Optimal || res.Cost != 3 {
			t.Errorf("%s: status %v cost %d, want OPTIMAL 3", engine.Name(), res.Status, res.Cost)
		}
	}
}

func TestEnginesLargeWeights(t *testing.T) {
	// Weights in the range produced by the −log transform with scale
	// 1e7 must not overflow or slow down any engine.
	ctx := context.Background()
	var inst cnf.WCNF
	inst.AddHard(1, 2, 3)
	inst.AddSoft(16094379, -1)
	inst.AddSoft(23025850, -2)
	inst.AddSoft(69077552, -3)
	for _, engine := range engines() {
		res, err := engine.Solve(ctx, &inst)
		if err != nil {
			t.Fatalf("%s: %v", engine.Name(), err)
		}
		if res.Cost != 16094379 {
			t.Errorf("%s: cost %d, want 16094379", engine.Name(), res.Cost)
		}
		if !res.Model[1] || res.Model[2] || res.Model[3] {
			t.Errorf("%s: model %v, want {1}", engine.Name(), res.Model)
		}
	}
}

func TestEnginesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A moderately hard instance so every engine hits its context check.
	rng := rand.New(rand.NewSource(59))
	var inst cnf.WCNF
	numVars := 60
	inst.NumVars = numVars
	for i := 0; i < 240; i++ {
		a := cnf.Lit(rng.Intn(numVars) + 1)
		b := cnf.Lit(rng.Intn(numVars) + 1)
		c := cnf.Lit(rng.Intn(numVars) + 1)
		if rng.Intn(2) == 0 {
			a = -a
		}
		if rng.Intn(2) == 0 {
			b = -b
		}
		if rng.Intn(2) == 0 {
			c = -c
		}
		inst.AddHard(a, b, c)
	}
	for v := 1; v <= numVars; v++ {
		inst.AddSoft(int64(1+rng.Intn(50)), -cnf.Lit(v))
	}
	for _, engine := range engines() {
		if _, err := engine.Solve(ctx, &inst); err == nil {
			t.Errorf("%s: cancelled solve returned no error", engine.Name())
		}
	}
}

func TestEnginesRejectInvalidInstance(t *testing.T) {
	ctx := context.Background()
	inst := &cnf.WCNF{NumVars: 1, Soft: []cnf.SoftClause{{Clause: cnf.Clause{1}, Weight: 0}}}
	for _, engine := range engines() {
		if _, err := engine.Solve(ctx, inst); err == nil {
			t.Errorf("%s: invalid instance accepted", engine.Name())
		}
	}
}

func TestEngineNames(t *testing.T) {
	names := map[string]bool{}
	for _, e := range engines() {
		if e.Name() == "" {
			t.Error("empty engine name")
		}
		if names[e.Name()] {
			t.Errorf("duplicate engine name %s", e.Name())
		}
		names[e.Name()] = true
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "OPTIMAL" || Infeasible.String() != "INFEASIBLE" || Unknown.String() != "UNKNOWN" {
		t.Error("Status.String mismatch")
	}
}
