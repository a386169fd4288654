package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"mpmcs4fta/internal/gen"
	"mpmcs4fta/internal/mcs"
)

func TestAnalyzerMatchesAnalyze(t *testing.T) {
	ctx := context.Background()
	tree := gen.FPS()
	analyzer, err := NewAnalyzer(tree, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	incremental, err := analyzer.Analyze(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Analyze(ctx, tree, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(incremental.CutSetIDs(), direct.CutSetIDs()) {
		t.Errorf("incremental %v vs direct %v", incremental.CutSetIDs(), direct.CutSetIDs())
	}
	if math.Abs(incremental.Probability-direct.Probability) > 1e-12 {
		t.Errorf("probabilities differ: %v vs %v", incremental.Probability, direct.Probability)
	}
}

func TestAnalyzerOverrides(t *testing.T) {
	ctx := context.Background()
	analyzer, err := NewAnalyzer(gen.FPS(), Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	// Make the no-water event dominant: the MPMCS must switch to {x3}.
	sol, err := analyzer.Analyze(ctx, map[string]float64{"x3": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sol.CutSetIDs(), []string{"x3"}) {
		t.Errorf("MPMCS = %v, want [x3]", sol.CutSetIDs())
	}
	if math.Abs(sol.Probability-0.5) > 1e-9 {
		t.Errorf("probability = %v", sol.Probability)
	}

	// The base tree is untouched: a fresh query returns the original.
	sol, err = analyzer.Analyze(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sol.CutSetIDs(), []string{"x1", "x2"}) {
		t.Errorf("base MPMCS = %v after override query", sol.CutSetIDs())
	}
}

func TestAnalyzerOverrideErrors(t *testing.T) {
	analyzer, err := NewAnalyzer(gen.FPS(), Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := analyzer.Analyze(context.Background(), map[string]float64{"ghost": 0.1}); err == nil {
		t.Error("unknown event accepted")
	}
	if _, err := analyzer.Analyze(context.Background(), map[string]float64{"x1": 1.5}); err == nil {
		t.Error("invalid probability accepted")
	}
	if _, err := NewAnalyzer(gen.FPS().Clone(), Options{}); err != nil {
		t.Errorf("NewAnalyzer on valid tree: %v", err)
	}
}

func TestAnalyzerAgreesWithOracleUnderOverrides(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 8; seed++ {
		tree, err := gen.Random(gen.Config{Events: 9, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		analyzer, err := NewAnalyzer(tree, Options{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		// Perturb two events and check against the oracle on the
		// perturbed tree.
		events := tree.Events()
		overrides := map[string]float64{
			events[0].ID: 0.9,
			events[1].ID: 0.001,
		}
		sol, err := analyzer.Analyze(ctx, overrides)
		if err != nil {
			t.Fatal(err)
		}
		perturbed := tree.Clone()
		for id, p := range overrides {
			if err := perturbed.SetProb(id, p); err != nil {
				t.Fatal(err)
			}
		}
		sets, err := mcs.Exhaustive(perturbed)
		if err != nil {
			t.Fatal(err)
		}
		_, want := mcs.MaxProbability(sets, perturbed.Probabilities())
		if math.Abs(sol.Probability-want) > 1e-9*want {
			t.Errorf("seed %d: got %v, oracle %v", seed, sol.Probability, want)
		}
	}
}

func TestSwitchPointFPS(t *testing.T) {
	ctx := context.Background()
	analyzer, err := NewAnalyzer(gen.FPS(), Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	// x3 is a singleton cut set; it enters the MPMCS once p(x3)
	// exceeds the current best 0.02. The switch point is 0.02.
	p, found, err := analyzer.SwitchPoint(ctx, "x3", 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("x3 should enter the MPMCS at high probability")
	}
	if math.Abs(p-0.02) > 1e-4 {
		t.Errorf("switch point = %v, want ≈0.02", p)
	}

	// x1 is already in the MPMCS: its switch point is at or below its
	// current probability.
	p, found, err = analyzer.SwitchPoint(ctx, "x1", 1e-6)
	if err != nil || !found {
		t.Fatalf("x1: %v, %v, %v", p, found, err)
	}
	if p > 0.2+1e-6 {
		t.Errorf("x1 switch point %v should not exceed its current probability", p)
	}

	if _, _, err := analyzer.SwitchPoint(ctx, "ghost", 0); err == nil {
		t.Error("unknown event accepted")
	}
}

func TestSwitchPointNever(t *testing.T) {
	// Event b only appears AND-ed with an impossible event: it never
	// enters the MPMCS.
	tree := gen.FPS()
	if err := tree.AddEvent("imp", 0); err != nil {
		t.Fatal(err)
	}
	if err := tree.AddEvent("b", 0.1); err != nil {
		t.Fatal(err)
	}
	if err := tree.AddAnd("dead", "imp", "b"); err != nil {
		t.Fatal(err)
	}
	if err := tree.AddOr("newtop", "top", "dead"); err != nil {
		t.Fatal(err)
	}
	tree.SetTop("newtop")
	analyzer, err := NewAnalyzer(tree, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	p, found, err := analyzer.SwitchPoint(context.Background(), "b", 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if found || p != 1 {
		t.Errorf("got %v, %v; want 1, false", p, found)
	}
}

func TestAnalyzeAboveFPS(t *testing.T) {
	ctx := context.Background()
	sols, err := AnalyzeAbove(ctx, gen.FPS(), 0.002, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	// Cut sets with probability ≥ 0.002: {x1,x2}=.02, {x5,x6}=.005,
	// {x5,x7}=.0025, {x4}=.002.
	if len(sols) != 4 {
		t.Fatalf("got %d solutions, want 4", len(sols))
	}
	for i, sol := range sols {
		if sol.Probability < 0.002 {
			t.Errorf("rank %d probability %v below threshold", i+1, sol.Probability)
		}
		if sol.ElapsedMS <= 0 {
			t.Errorf("rank %d: elapsedMillis %v, want > 0", i+1, sol.ElapsedMS)
		}
	}
	if !reflect.DeepEqual(sols[3].CutSetIDs(), []string{"x4"}) {
		t.Errorf("last = %v, want [x4]", sols[3].CutSetIDs())
	}

	// A threshold above the MPMCS yields nothing.
	sols, err = AnalyzeAbove(ctx, gen.FPS(), 0.5, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 0 {
		t.Errorf("got %d solutions above 0.5", len(sols))
	}

	if _, err := AnalyzeAbove(ctx, gen.FPS(), 0, Options{}); err == nil {
		t.Error("zero threshold accepted")
	}
}
