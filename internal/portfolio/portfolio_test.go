package portfolio

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/maxsat"
)

func smallInstance() *cnf.WCNF {
	var inst cnf.WCNF
	inst.AddHard(1, 3)
	inst.AddHard(2, 3)
	inst.AddSoft(2, -1)
	inst.AddSoft(3, -2)
	inst.AddSoft(10, -3)
	return &inst
}

func TestSolveSmall(t *testing.T) {
	res, report, err := Solve(context.Background(), smallInstance(), DefaultEngines())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != maxsat.Optimal || res.Cost != 5 {
		t.Errorf("got %v cost %d, want OPTIMAL 5", res.Status, res.Cost)
	}
	if report.Winner == "" {
		t.Error("no winner recorded")
	}
	if len(report.Engines) != len(DefaultEngines()) {
		t.Errorf("report has %d engines", len(report.Engines))
	}
}

func TestSolveNoEngines(t *testing.T) {
	if _, _, err := Solve(context.Background(), smallInstance(), nil); !errors.Is(err, ErrNoEngines) {
		t.Errorf("got %v", err)
	}
	if _, _, err := SolveSequential(context.Background(), smallInstance(), nil); !errors.Is(err, ErrNoEngines) {
		t.Errorf("sequential: got %v", err)
	}
}

func TestSolveInfeasible(t *testing.T) {
	var inst cnf.WCNF
	inst.AddHard(1)
	inst.AddHard(-1)
	res, _, err := Solve(context.Background(), &inst, DefaultEngines())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != maxsat.Infeasible {
		t.Errorf("got %v, want INFEASIBLE", res.Status)
	}
}

func TestSolveSequentialOrder(t *testing.T) {
	engines := DefaultEngines()
	res, report, err := SolveSequential(context.Background(), smallInstance(), engines)
	if err != nil {
		t.Fatal(err)
	}
	if report.Winner != engines[0].Name {
		t.Errorf("sequential winner = %s, want first engine %s", report.Winner, engines[0].Name)
	}
	if res.Cost != 5 {
		t.Errorf("cost = %d", res.Cost)
	}
}

// slowSolver blocks until its context is cancelled.
type slowSolver struct{}

func (slowSolver) Name() string { return "slow" }

func (slowSolver) Solve(ctx context.Context, _ *cnf.WCNF) (maxsat.Result, error) {
	<-ctx.Done()
	return maxsat.Result{}, ctx.Err()
}

// panicSolver panics immediately, simulating an engine bug.
type panicSolver struct{}

func (panicSolver) Name() string { return "panic" }

func (panicSolver) Solve(context.Context, *cnf.WCNF) (maxsat.Result, error) {
	panic("engine bug")
}

// failSolver errors immediately.
type failSolver struct{}

func (failSolver) Name() string { return "fail" }

func (failSolver) Solve(context.Context, *cnf.WCNF) (maxsat.Result, error) {
	return maxsat.Result{}, errors.New("boom")
}

func TestSolveFirstFinisherWins(t *testing.T) {
	engines := []Engine{
		{Name: "slow", Solver: slowSolver{}},
		{Name: "fast", Solver: &maxsat.BranchBound{}},
	}
	start := time.Now()
	res, report, err := Solve(context.Background(), smallInstance(), engines)
	if err != nil {
		t.Fatal(err)
	}
	if report.Winner != "fast" {
		t.Errorf("winner = %s", report.Winner)
	}
	if res.Cost != 5 {
		t.Errorf("cost = %d", res.Cost)
	}
	// The slow solver must have been cancelled promptly, not waited out.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("portfolio took %v; cancellation failed", elapsed)
	}
	for _, rep := range report.Engines {
		if rep.Name != "slow" {
			continue
		}
		if rep.Err == "" {
			t.Error("slow engine should report a cancellation error")
		}
		if !rep.Cancelled {
			t.Errorf("slow engine reported as failed, not cancelled: %+v", rep)
		}
		if !strings.Contains(rep.Err, "cancelled") {
			t.Errorf("Err should distinguish cancellation: %q", rep.Err)
		}
	}
}

// slowRealSolver wraps a real engine but stalls before solving, so it
// reliably loses the race yet returns the engine's genuine
// interruption error (not a bare context error). It exercises the
// cancelled-not-failed classification with realistic error chains.
type slowRealSolver struct{ inner maxsat.Solver }

func (s slowRealSolver) Name() string { return "slow-real" }

func (s slowRealSolver) Solve(ctx context.Context, inst *cnf.WCNF) (maxsat.Result, error) {
	select {
	case <-ctx.Done():
		return s.inner.Solve(ctx, inst) // engine sees the cancelled context
	case <-time.After(30 * time.Second):
		return s.inner.Solve(ctx, inst)
	}
}

func TestSolveCancelledEngineNotFailed(t *testing.T) {
	engines := []Engine{
		{Name: "slow-real", Solver: slowRealSolver{inner: &maxsat.LinearSU{}}},
		{Name: "fast", Solver: &maxsat.BranchBound{}},
	}
	res, report, err := Solve(context.Background(), smallInstance(), engines)
	if err != nil {
		t.Fatal(err)
	}
	if report.Winner != "fast" || res.Cost != 5 {
		t.Fatalf("winner %s cost %d", report.Winner, res.Cost)
	}
	if report.Elapsed <= 0 {
		t.Error("Report.Elapsed not set")
	}
	for _, rep := range report.Engines {
		switch rep.Name {
		case "slow-real":
			if !rep.Cancelled {
				t.Errorf("loser should be cancelled, got %+v", rep)
			}
			if rep.Completed {
				t.Error("cancelled engine cannot be completed")
			}
		case "fast":
			if !rep.Completed || rep.Cancelled {
				t.Errorf("winner report %+v", rep)
			}
			if rep.Stats.Decisions == 0 {
				t.Error("winner's solver stats missing from its report")
			}
		}
	}
}

func TestSolveAllFailElapsedSet(t *testing.T) {
	engines := []Engine{{Name: "fail", Solver: failSolver{}}}
	_, report, err := Solve(context.Background(), smallInstance(), engines)
	if err == nil {
		t.Fatal("expected error")
	}
	if report.Elapsed <= 0 {
		t.Error("Report.Elapsed must be set even when every engine fails")
	}
	_, report, err = SolveSequential(context.Background(), smallInstance(), engines)
	if err == nil {
		t.Fatal("expected sequential error")
	}
	if report.Elapsed <= 0 {
		t.Error("sequential Report.Elapsed must be set on total failure")
	}
	if report.WinnerReport() != nil {
		t.Error("WinnerReport on total failure should be nil")
	}
}

// TestSolveRealFailureNotCancelled: an engine that errors on its own
// must stay a failure even though a sibling later wins.
func TestSolveRealFailureNotCancelled(t *testing.T) {
	engines := []Engine{
		{Name: "fail", Solver: failSolver{}},
		{Name: "good", Solver: &maxsat.BranchBound{}},
	}
	_, report, err := Solve(context.Background(), smallInstance(), engines)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range report.Engines {
		if rep.Name == "fail" && rep.Cancelled {
			t.Errorf("genuine failure misclassified as cancellation: %+v", rep)
		}
	}
}

func TestSolveStatsForAllMembers(t *testing.T) {
	res, report, err := Solve(context.Background(), smallInstance(), DefaultEngines())
	if err != nil {
		t.Fatal(err)
	}
	win := report.WinnerReport()
	if win == nil {
		t.Fatal("no winner report")
	}
	if !reflect.DeepEqual(win.Stats, res.Stats) {
		t.Error("winner's EngineReport.Stats disagrees with the result's stats")
	}
	completed := 0
	for _, rep := range report.Engines {
		if rep.Completed {
			completed++
			if rep.Stats.SATCalls == 0 && rep.Stats.Decisions == 0 {
				t.Errorf("completed engine %s reported no work", rep.Name)
			}
		}
	}
	if completed == 0 {
		t.Error("no engine completed")
	}
}

func TestSolveSurvivesPanickingEngine(t *testing.T) {
	engines := []Engine{
		{Name: "panic", Solver: panicSolver{}},
		{Name: "good", Solver: &maxsat.BranchBound{}},
	}
	res, report, err := Solve(context.Background(), smallInstance(), engines)
	if err != nil {
		t.Fatalf("portfolio should survive an engine panic: %v", err)
	}
	if res.Cost != 5 || report.Winner != "good" {
		t.Errorf("cost %d winner %s", res.Cost, report.Winner)
	}
	for _, rep := range report.Engines {
		if rep.Name == "panic" && !strings.Contains(rep.Err, "panicked") {
			t.Errorf("panic engine report: %+v", rep)
		}
	}
}

func TestSolveAllFail(t *testing.T) {
	engines := []Engine{
		{Name: "fail", Solver: failSolver{}},
		{Name: "fail2", Solver: failSolver{}},
	}
	_, report, err := Solve(context.Background(), smallInstance(), engines)
	if err == nil {
		t.Fatal("expected error when all engines fail")
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Errorf("error %v should mention the cause", err)
	}
	if report.Winner != "" {
		t.Errorf("winner = %q on total failure", report.Winner)
	}
}

func TestSolveParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	engines := []Engine{{Name: "slow", Solver: slowSolver{}}}
	if _, _, err := Solve(ctx, smallInstance(), engines); err == nil {
		t.Error("expected error from cancelled parent context")
	}
}

func TestSolveAgreesWithSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 20; trial++ {
		var inst cnf.WCNF
		numVars := 5 + rng.Intn(5)
		inst.NumVars = numVars
		for i := 0; i < numVars; i++ {
			a := cnf.Lit(rng.Intn(numVars) + 1)
			b := cnf.Lit(rng.Intn(numVars) + 1)
			if rng.Intn(2) == 0 {
				a = -a
			}
			if rng.Intn(2) == 0 {
				b = -b
			}
			inst.AddHard(a, b)
		}
		for v := 1; v <= numVars; v++ {
			inst.AddSoft(int64(1+rng.Intn(30)), -cnf.Lit(v))
		}

		parallel, _, err1 := Solve(context.Background(), &inst, DefaultEngines())
		sequential, _, err2 := SolveSequential(context.Background(), &inst, DefaultEngines())
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: errors %v, %v", trial, err1, err2)
		}
		if parallel.Status != sequential.Status {
			t.Fatalf("trial %d: status %v vs %v", trial, parallel.Status, sequential.Status)
		}
		if parallel.Status == maxsat.Optimal && parallel.Cost != sequential.Cost {
			t.Fatalf("trial %d: cost %d vs %d", trial, parallel.Cost, sequential.Cost)
		}
	}
}

func TestDefaultEnginesDistinctNames(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range DefaultEngines() {
		if seen[e.Name] {
			t.Errorf("duplicate engine name %s", e.Name)
		}
		seen[e.Name] = true
		if e.Solver == nil {
			t.Errorf("engine %s has nil solver", e.Name)
		} else if name := e.Solver.Name(); name != e.Name {
			t.Errorf("engine registered as %s, but its solver reports %s", e.Name, name)
		}
	}
}
