package differ

// Divergence-injection tests: each cross-check of the harness is
// exercised by pairing an honest engine with a deliberately corrupted
// one and asserting that exactly the expected check fires. If a check
// here stops firing, the harness has gone blind to that bug class.

import (
	"context"
	"testing"

	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/core"
	"mpmcs4fta/internal/gen"
	"mpmcs4fta/internal/maxsat"
	"mpmcs4fta/internal/portfolio"
)

// mutantSolver wraps a real engine and corrupts its optimal results.
type mutantSolver struct {
	inner  maxsat.Solver
	mutate func(inst *cnf.WCNF, res *maxsat.Result)
}

func (m *mutantSolver) Name() string { return "mutant" }

func (m *mutantSolver) Solve(ctx context.Context, inst *cnf.WCNF) (maxsat.Result, error) {
	res, err := m.inner.Solve(ctx, inst.Clone())
	if err == nil && res.Status == maxsat.Optimal {
		m.mutate(inst, &res)
	}
	return res, err
}

// forcedSolver solves the instance with extra hard unit clauses: the
// model stays feasible for the original hards, but the decoded event
// set is a strict superset of a minimal cut set.
type forcedSolver struct {
	inner maxsat.Solver
	force []cnf.Lit
}

func (f *forcedSolver) Name() string { return "mutant" }

func (f *forcedSolver) Solve(ctx context.Context, inst *cnf.WCNF) (maxsat.Result, error) {
	augmented := inst.Clone()
	for _, l := range f.force {
		augmented.AddHard(l)
	}
	return f.inner.Solve(ctx, augmented)
}

// failingSolver reports every instance infeasible.
type failingSolver struct{}

func (failingSolver) Name() string { return "mutant" }

func (failingSolver) Solve(context.Context, *cnf.WCNF) (maxsat.Result, error) {
	return maxsat.Result{Status: maxsat.Infeasible}, nil
}

func TestInjectedDivergencesFire(t *testing.T) {
	ctx := context.Background()
	tree := gen.FPS()

	// The harness builds its instance with the same deterministic
	// variable order, so VarOf from an identical build addresses the
	// models the stubs will see.
	steps, err := core.BuildSteps(tree, core.Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	varOf := steps.Encoding.VarOf

	cases := []struct {
		name   string
		mutant maxsat.Solver
		want   string // divergence kind that must fire
	}{
		{
			name: "cost off by one",
			mutant: &mutantSolver{inner: &maxsat.LinearSU{}, mutate: func(_ *cnf.WCNF, res *maxsat.Result) {
				res.Cost++
			}},
			want: CheckModelCost,
		},
		{
			name: "cost off by one disagrees with peers",
			mutant: &mutantSolver{inner: &maxsat.LinearSU{}, mutate: func(_ *cnf.WCNF, res *maxsat.Result) {
				res.Cost--
			}},
			want: CheckCost,
		},
		{
			name: "infeasible model",
			mutant: &mutantSolver{inner: &maxsat.LinearSU{}, mutate: func(inst *cnf.WCNF, res *maxsat.Result) {
				// Falsify every literal of the first hard clause.
				for _, l := range inst.Hard[0] {
					res.Model[l.Var()] = !l.Pos()
				}
			}},
			want: CheckModelHard,
		},
		{
			name: "non-minimal cut set",
			mutant: &forcedSolver{inner: &maxsat.LinearSU{}, force: []cnf.Lit{
				// Force x1, x2 and x3 to fail: {x1,x2,x3} strictly
				// contains the minimal cut sets {x1,x2} and {x3}.
				-cnf.Lit(varOf["x1"]),
				-cnf.Lit(varOf["x2"]),
				-cnf.Lit(varOf["x3"]),
			}},
			want: CheckMinimality,
		},
		{
			name:   "status disagreement",
			mutant: failingSolver{},
			want:   CheckStatus,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engines := []portfolio.Engine{
				{Name: "honest", Solver: &maxsat.WMSU1{}},
				{Name: "mutant", Solver: tc.mutant},
			}
			rep, err := CheckTree(ctx, tree, Options{Engines: engines})
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK() {
				t.Fatalf("corrupted engine went undetected:\n%s", rep)
			}
			fired := map[string]bool{}
			for _, d := range rep.Divergences {
				fired[d.Check] = true
				if d.Engine == "honest" {
					t.Errorf("honest engine blamed: %s", d)
				}
			}
			if !fired[tc.want] {
				t.Errorf("check %q did not fire; got:\n%s", tc.want, rep)
			}
		})
	}
}

// boundLiar answers honestly when solved alone, as the per-engine
// checks run it. In a race it returns a sub-optimal incumbent (forced
// by extra hard units) and publishes that incumbent's cost as a proven
// lower bound, so the race certifies it OPTIMAL.
type boundLiar struct{ forcedSolver }

func (b *boundLiar) Solve(ctx context.Context, inst *cnf.WCNF) (maxsat.Result, error) {
	return b.inner.Solve(ctx, inst)
}

func (b *boundLiar) SolveWithProgress(ctx context.Context, inst *cnf.WCNF, prog maxsat.Progress) (maxsat.Result, error) {
	res, err := b.forcedSolver.Solve(ctx, inst)
	if err != nil || res.Status != maxsat.Optimal {
		return res, err
	}
	prog.PublishModel(res.Cost, res.Model)
	prog.PublishLower(res.Cost)
	res.Status = maxsat.Feasible
	return res, nil
}

// TestInjectedPipelineDivergence: a fault that only the raced answer
// shows — a lying lower bound turned into a cooperative optimality
// proof — is caught by the pipeline check and by no per-engine check.
func TestInjectedPipelineDivergence(t *testing.T) {
	tree := gen.FPS()
	steps, err := core.BuildSteps(tree, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Keeping x1 up rules out the MPMCS {x1,x2} (p = 0.02).
	liar := &boundLiar{forcedSolver{inner: &maxsat.LinearSU{}, force: []cnf.Lit{cnf.Lit(steps.Encoding.VarOf["x1"])}}}
	rep, err := CheckTree(context.Background(), tree, Options{Engines: []portfolio.Engine{{Name: "mutant", Solver: liar}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Divergences) == 0 {
		t.Fatalf("lying bound went undetected:\n%s", rep)
	}
	for _, d := range rep.Divergences {
		if d.Check != CheckPipeline {
			t.Errorf("check %q fired; want only %q:\n%s", d.Check, CheckPipeline, rep)
		}
	}
}

// TestInjectedWCNFDivergence: the raw-WCNF entry point catches a cost
// lie without any tree-side oracle.
func TestInjectedWCNFDivergence(t *testing.T) {
	inst := &cnf.WCNF{}
	inst.AddHard(1, 2)
	inst.AddSoft(5, 1)
	inst.AddSoft(3, 2)
	engines := []portfolio.Engine{
		{Name: "honest", Solver: &maxsat.WMSU1{}},
		{Name: "mutant", Solver: &mutantSolver{inner: &maxsat.LinearSU{}, mutate: func(_ *cnf.WCNF, res *maxsat.Result) {
			res.Cost++
		}}},
	}
	rep, err := CheckWCNF(context.Background(), inst, Options{Engines: engines})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("cost lie went undetected on raw WCNF")
	}
}

// TestShrinkNonDivergent: a healthy configuration shrinks to itself
// with no reproducer.
func TestShrinkNonDivergent(t *testing.T) {
	cfg := gen.Config{Events: 8, Seed: 3}
	got, rep := Shrink(context.Background(), cfg, Options{})
	if rep != nil {
		t.Fatalf("unexpected reproducer:\n%s", rep)
	}
	if got != cfg {
		t.Errorf("config changed without divergence: %+v", got)
	}
}

// TestShrinkMinimizesReproducer: with an always-lying engine in the
// portfolio, the shrink loop walks the generator parameters down to a
// local minimum that still diverges.
func TestShrinkMinimizesReproducer(t *testing.T) {
	engines := []portfolio.Engine{
		{Name: "honest", Solver: &maxsat.WMSU1{}},
		{Name: "mutant", Solver: &mutantSolver{inner: &maxsat.LinearSU{}, mutate: func(_ *cnf.WCNF, res *maxsat.Result) {
			res.Cost++
		}}},
	}
	cfg := gen.Config{Events: 24, MaxFanIn: 5, VotingFrac: 0.3, Seed: 7}
	got, rep := Shrink(context.Background(), cfg, Options{Engines: engines})
	if rep == nil {
		t.Fatal("divergent config produced no reproducer")
	}
	if rep.OK() {
		t.Fatal("reproducer report has no divergence")
	}
	if got.Events != 2 {
		t.Errorf("events not minimized: got %d, want 2", got.Events)
	}
	if !got.NoSharing || got.VotingFrac != 0 {
		t.Errorf("structure not minimized: %+v", got)
	}
	// The minimum must be stable: every further reduction agrees.
	for _, smaller := range reductions(got) {
		if r := divergesAnySeed(context.Background(), smaller, Options{Engines: engines}); r == nil {
			continue
		}
		t.Errorf("shrink stopped early: %+v still diverges", smaller)
	}
}
