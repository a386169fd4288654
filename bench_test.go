package mpmcs4fta

// Benchmarks regenerating the paper's tables and figures — one
// testing.B target per experiment in DESIGN.md (E1–E9). Run with
//
//	go test -bench=. -benchmem
//
// The cmd/ftbench binary prints the same series as human-readable
// tables; these targets give the per-iteration timings.

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"mpmcs4fta/internal/boolexpr"
	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/core"
	"mpmcs4fta/internal/gen"
	"mpmcs4fta/internal/maxsat"
	"mpmcs4fta/internal/portfolio"
	"mpmcs4fta/internal/sat"
)

// BenchmarkE1FPSExample measures the end-to-end pipeline on the paper's
// Fig. 1 tree (Experiment E1).
func BenchmarkE1FPSExample(b *testing.B) {
	ctx := context.Background()
	tree := ExampleFPS()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sol, err := Analyze(ctx, tree, Options{Sequential: true})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Probability < 0.0199 || sol.Probability > 0.0201 {
			b.Fatalf("wrong answer: %v", sol.Probability)
		}
	}
}

// BenchmarkE2LogTransform measures Steps 1–4 (Table I construction
// included) without solving (Experiment E2).
func BenchmarkE2LogTransform(b *testing.B) {
	tree := ExampleFPS()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		steps, err := BuildSteps(tree, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(steps.Weights) != 7 {
			b.Fatal("bad weights")
		}
	}
}

// BenchmarkE3JSONSolution measures producing the Fig. 2 JSON document
// (Experiment E3).
func BenchmarkE3JSONSolution(b *testing.B) {
	ctx := context.Background()
	tree := ExampleFPS()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sol, err := Analyze(ctx, tree, Options{Sequential: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := jsonMarshal(sol); err != nil {
			b.Fatal(err)
		}
	}
}

func jsonMarshal(sol *Solution) ([]byte, error) {
	return json.Marshal(sol)
}

// BenchmarkE4Scalability measures the full pipeline across tree sizes —
// the paper's "thousands of nodes in seconds" series (Experiment E4).
func BenchmarkE4Scalability(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{50, 100, 500, 1000, 2000, 5000} {
		tree, err := gen.Random(gen.Config{Events: n, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("events=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(ctx, tree, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5Portfolio measures each engine alone against the parallel
// portfolio on the same instance (Experiment E5, the Step-5 ablation).
func BenchmarkE5Portfolio(b *testing.B) {
	ctx := context.Background()
	tree, err := gen.Random(gen.Config{Events: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	steps, err := core.BuildSteps(tree, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, engine := range portfolio.DefaultEngines() {
		b.Run("engine="+engine.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Solver.Solve(ctx, steps.Instance.Clone()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("engine=portfolio", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := portfolio.Solve(ctx, steps.Instance, portfolio.DefaultEngines()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE6BDDBaseline compares the MaxSAT pipeline against the BDD
// engine on the same trees (Experiment E6, the paper's future-work
// comparison).
func BenchmarkE6BDDBaseline(b *testing.B) {
	ctx := context.Background()
	// Sizes stop at 200: random trees beyond that routinely exceed the
	// BDD node budget (see EXPERIMENTS.md, E6), while MaxSAT continues
	// into the thousands (BenchmarkE4Scalability).
	for _, n := range []int{50, 100, 200} {
		tree, err := gen.Random(gen.Config{Events: n, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("maxsat/events=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(ctx, tree, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("bdd/events=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := AnalyzeBDD(tree, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7VotingGates compares the native K-of-N threshold encoding
// against AND/OR expansion (Experiment E7, the paper's second
// future-work item).
func BenchmarkE7VotingGates(b *testing.B) {
	ctx := context.Background()
	tree, err := gen.Random(gen.Config{Events: 300, Seed: 1, VotingFrac: 0.4, MaxFanIn: 6})
	if err != nil {
		b.Fatal(err)
	}

	b.Run("native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Analyze(ctx, tree, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("expanded-shannon", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inst, err := expandedInstance(tree, boolexpr.ExpandAtLeast)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := portfolio.Solve(ctx, inst, portfolio.DefaultEngines()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("expanded-naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inst, err := expandedInstance(tree, boolexpr.ExpandAtLeastNaive)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := portfolio.Solve(ctx, inst, portfolio.DefaultEngines()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// expandedInstance builds the WPMS instance with voting gates expanded
// to AND/OR before encoding, mirroring ftbench's E7.
func expandedInstance(tree *Tree, expand func(boolexpr.Expr) boolexpr.Expr) (*cnf.WCNF, error) {
	f, err := tree.Formula()
	if err != nil {
		return nil, err
	}
	expanded := boolexpr.Simplify(expand(boolexpr.Not{X: boolexpr.Dual(f)}))
	events := tree.Events()
	order := make([]string, len(events))
	for i, e := range events {
		order[i] = e.ID
	}
	enc, err := cnf.Tseitin(expanded, cnf.TseitinOptions{VarOrder: order})
	if err != nil {
		return nil, err
	}
	inst := &cnf.WCNF{NumVars: enc.Formula.NumVars}
	for _, clause := range enc.Formula.Clauses {
		inst.AddHard(clause...)
	}
	for _, w := range core.LogWeights(events, core.DefaultScale) {
		if w.Hard {
			inst.AddHard(cnf.Lit(enc.VarOf[w.ID]))
		} else if w.Scaled > 0 {
			inst.AddSoft(w.Scaled, cnf.Lit(enc.VarOf[w.ID]))
		}
	}
	return inst, nil
}

// BenchmarkE8Encodings compares full Tseitin with Plaisted-Greenbaum
// (Experiment E8, the Step-2 ablation).
func BenchmarkE8Encodings(b *testing.B) {
	ctx := context.Background()
	tree, err := gen.Random(gen.Config{Events: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, pg := range []bool{false, true} {
		name := "full"
		if pg {
			name = "plaisted-greenbaum"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(ctx, tree, Options{PlaistedGreenbaum: pg}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9TopK measures ranked enumeration of the ten most probable
// cut sets (Experiment E9).
func BenchmarkE9TopK(b *testing.B) {
	ctx := context.Background()
	tree, err := gen.Random(gen.Config{Events: 500, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sols, err := AnalyzeTopK(ctx, tree, 10, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(sols) == 0 {
			b.Fatal("no solutions")
		}
	}
}

// BenchmarkSATSolver measures raw CDCL throughput on a hard structured
// instance (pigeonhole), isolating the substrate from the pipeline.
func BenchmarkSATSolver(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sat.New(0)
		addPigeonhole(s, 7, 6)
		status, err := s.Solve(ctx)
		if err != nil || status != sat.Unsat {
			b.Fatalf("%v, %v", status, err)
		}
	}
}

func addPigeonhole(s *sat.Solver, pigeons, holes int) {
	v := func(i, j int) cnf.Lit { return cnf.Lit(i*holes + j + 1) }
	for i := 0; i < pigeons; i++ {
		clause := make([]cnf.Lit, holes)
		for j := 0; j < holes; j++ {
			clause[j] = v(i, j)
		}
		s.AddClause(clause...)
	}
	for j := 0; j < holes; j++ {
		for i1 := 0; i1 < pigeons; i1++ {
			for i2 := i1 + 1; i2 < pigeons; i2++ {
				s.AddClause(-v(i1, j), -v(i2, j))
			}
		}
	}
}

// BenchmarkMaxSATEngines measures each MaxSAT algorithm on a common
// small MPMCS instance. The size is deliberately modest: LinearSU's
// model-improving search degrades sharply on fine-grained weights (see
// EXPERIMENTS.md E5), and a benchmark must terminate for every engine.
func BenchmarkMaxSATEngines(b *testing.B) {
	ctx := context.Background()
	tree, err := gen.Random(gen.Config{Events: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	steps, err := core.BuildSteps(tree, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	engines := []maxsat.Solver{&maxsat.WMSU1{}, &maxsat.LinearSU{}, &maxsat.BranchBound{}}
	for _, engine := range engines {
		b.Run(engine.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Solve(ctx, steps.Instance.Clone()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
