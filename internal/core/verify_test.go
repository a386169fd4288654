package core

import (
	"context"
	"testing"

	"mpmcs4fta/internal/gen"
)

func TestVerifySolutionAccepts(t *testing.T) {
	ctx := context.Background()
	sol, err := Analyze(ctx, gen.FPS(), Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySolution(gen.FPS(), sol); err != nil {
		t.Errorf("genuine solution rejected: %v", err)
	}
}

func TestVerifySolutionRejectsTampering(t *testing.T) {
	ctx := context.Background()
	sol, err := Analyze(ctx, gen.FPS(), Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("nil", func(t *testing.T) {
		if err := VerifySolution(gen.FPS(), nil); err == nil {
			t.Error("nil solution accepted")
		}
	})
	t.Run("wrong probability", func(t *testing.T) {
		tampered := *sol
		tampered.Probability = 0.5
		if err := VerifySolution(gen.FPS(), &tampered); err == nil {
			t.Error("tampered probability accepted")
		}
	})
	t.Run("non-minimal set", func(t *testing.T) {
		tampered := *sol
		tampered.MPMCS = append(append([]SolutionEvent(nil), sol.MPMCS...), SolutionEvent{
			ID: "x5", Prob: 0.05, Weight: 2.99573,
		})
		if err := VerifySolution(gen.FPS(), &tampered); err == nil {
			t.Error("non-minimal set accepted")
		}
	})
	t.Run("unknown event", func(t *testing.T) {
		tampered := *sol
		tampered.MPMCS = []SolutionEvent{{ID: "ghost", Prob: 1}}
		if err := VerifySolution(gen.FPS(), &tampered); err == nil {
			t.Error("unknown event accepted")
		}
	})
	t.Run("drifted event probability", func(t *testing.T) {
		tampered := *sol
		tampered.MPMCS = append([]SolutionEvent(nil), sol.MPMCS...)
		tampered.MPMCS[0].Prob += 0.01
		if err := VerifySolution(gen.FPS(), &tampered); err == nil {
			t.Error("drifted probability accepted")
		}
	})
	t.Run("wrong tree", func(t *testing.T) {
		if err := VerifySolution(gen.PressureTank(), sol); err == nil {
			t.Error("solution verified against the wrong tree")
		}
	})
}

func TestAnalyzeDisjointFPS(t *testing.T) {
	ctx := context.Background()
	sols, err := AnalyzeDisjoint(ctx, gen.FPS(), 10, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	// {x1,x2} first; then the best disjoint from it: {x3}=.001,
	// {x4}=.002, {x5,x6}=.005 all disjoint → {x5,x6}; then among sets
	// disjoint from both: {x3}, {x4} → {x4}; then {x3}.
	wantSets := [][]string{
		{"x1", "x2"},
		{"x5", "x6"},
		{"x4"},
		{"x3"},
	}
	if len(sols) != len(wantSets) {
		t.Fatalf("got %d disjoint sets, want %d", len(sols), len(wantSets))
	}
	used := make(map[string]bool)
	for i, sol := range sols {
		if sol.ElapsedMS <= 0 {
			t.Errorf("rank %d: elapsedMillis %v, want > 0", i+1, sol.ElapsedMS)
		}
		ids := sol.CutSetIDs()
		if len(ids) != len(wantSets[i]) {
			t.Fatalf("rank %d: %v, want %v", i+1, ids, wantSets[i])
		}
		for j := range ids {
			if ids[j] != wantSets[i][j] {
				t.Fatalf("rank %d: %v, want %v", i+1, ids, wantSets[i])
			}
			if used[ids[j]] {
				t.Fatalf("event %s reused across disjoint sets", ids[j])
			}
			used[ids[j]] = true
		}
	}
}

func TestAnalyzeDisjointErrors(t *testing.T) {
	if _, err := AnalyzeDisjoint(context.Background(), gen.FPS(), 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestAnalyzeDisjointSolutionsVerify(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 6; seed++ {
		tree, err := gen.Random(gen.Config{Events: 10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		sols, err := AnalyzeDisjoint(ctx, tree, 5, Options{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, sol := range sols {
			if err := VerifySolution(tree, sol); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}
	}
}
