package maxsat

import (
	"context"
	"testing"

	"mpmcs4fta/internal/cnf"
)

// statsInstance is small but nontrivial: optimum cost 5 (falsify x1
// and x2, keep x3).
func statsInstance() *cnf.WCNF {
	var inst cnf.WCNF
	inst.AddHard(1, 3)
	inst.AddHard(2, 3)
	inst.AddSoft(2, -1)
	inst.AddSoft(3, -2)
	inst.AddSoft(10, -3)
	return &inst
}

func TestEngineStatsPopulated(t *testing.T) {
	engines := []Solver{&LinearSU{}, &WMSU1{}, &BranchBound{}}
	for _, e := range engines {
		t.Run(e.Name(), func(t *testing.T) {
			res, err := e.Solve(context.Background(), statsInstance())
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != Optimal || res.Cost != 5 {
				t.Fatalf("got %v cost %d", res.Status, res.Cost)
			}
			st := res.Stats
			if _, isBB := e.(*BranchBound); isBB {
				if st.Decisions == 0 {
					t.Error("branch-and-bound recorded no decisions")
				}
			} else {
				if st.SATCalls == 0 {
					t.Error("SAT-backed engine recorded no SAT calls")
				}
				if st.Propagations == 0 {
					t.Error("no propagations recorded")
				}
			}
			if len(st.Bounds) == 0 {
				t.Fatal("no bound trajectory recorded")
			}
			last := st.Bounds[len(st.Bounds)-1]
			if last.Lower != res.Cost || last.Upper != res.Cost {
				t.Errorf("final bound step %+v, want lower=upper=%d", last, res.Cost)
			}
			// Lower bounds never decrease; upper bounds never increase
			// (ignoring the -1 "no model yet" marker).
			var lower int64
			upper := int64(-1)
			for _, b := range st.Bounds {
				if b.Lower < lower {
					t.Errorf("lower bound regressed: %+v", st.Bounds)
				}
				lower = b.Lower
				if b.Upper >= 0 {
					if upper >= 0 && b.Upper > upper {
						t.Errorf("upper bound regressed: %+v", st.Bounds)
					}
					upper = b.Upper
				}
			}
		})
	}
}

func TestEngineStatsOnInterruption(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range []Solver{&LinearSU{}, &WMSU1{}} {
		res, err := e.Solve(ctx, statsInstance())
		if err == nil {
			t.Fatalf("%s: expected interruption error", e.Name())
		}
		// Counters up to the interruption must still be reported (the
		// portfolio shows losers' work); with an already-cancelled
		// context the counts are simply zero, which is fine — the
		// field must just be safe to read.
		_ = res.Stats
	}
}

func TestEngineStatsInfeasible(t *testing.T) {
	var inst cnf.WCNF
	inst.AddHard(1)
	inst.AddHard(-1)
	inst.AddSoft(1, 2)
	for _, e := range []Solver{&LinearSU{}, &WMSU1{}, &BranchBound{}} {
		res, err := e.Solve(context.Background(), &inst)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Infeasible {
			t.Errorf("%s: %v", e.Name(), res.Status)
		}
		if len(res.Stats.Bounds) != 0 {
			t.Errorf("%s: infeasible run has bound trajectory %+v", e.Name(), res.Stats.Bounds)
		}
	}
}
