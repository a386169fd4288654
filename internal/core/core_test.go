package core

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"mpmcs4fta/internal/boolexpr"
	"mpmcs4fta/internal/fp"
	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/gen"
	"mpmcs4fta/internal/maxsat"
	"mpmcs4fta/internal/mcs"
)

func TestAnalyzeFPS(t *testing.T) {
	// The paper's worked example: MPMCS = {x1, x2}, probability 0.02.
	sol, err := Analyze(context.Background(), gen.FPS(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.CutSetIDs(); !reflect.DeepEqual(got, []string{"x1", "x2"}) {
		t.Errorf("MPMCS = %v, want [x1 x2]", got)
	}
	if math.Abs(sol.Probability-0.02) > 1e-9 {
		t.Errorf("probability = %v, want 0.02", sol.Probability)
	}
	if sol.Solver == "" || sol.Method == "" {
		t.Error("solution missing solver/method metadata")
	}
	if sol.Stats.Events != 7 || sol.Stats.Gates != 5 {
		t.Errorf("stats = %+v", sol.Stats)
	}
	if sol.Stats.SoftClauses != 7 {
		t.Errorf("expected 7 soft clauses, got %d", sol.Stats.SoftClauses)
	}
}

// TestTableIWeights reproduces the paper's Table I exactly (to the five
// decimal places printed there).
func TestTableIWeights(t *testing.T) {
	steps, err := BuildSteps(gen.FPS(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"x1": 1.60944, "x2": 2.30259, "x3": 6.90776, "x4": 6.21461,
		"x5": 2.99573, "x6": 2.30259, "x7": 2.99573,
	}
	if len(steps.Weights) != len(want) {
		t.Fatalf("got %d weights", len(steps.Weights))
	}
	for _, w := range steps.Weights {
		if math.Abs(w.Weight-want[w.ID]) > 5e-6 {
			t.Errorf("w(%s) = %.5f, want %.5f", w.ID, w.Weight, want[w.ID])
		}
		if w.Scaled <= 0 || w.Hard {
			t.Errorf("w(%s) scaled=%d hard=%v", w.ID, w.Scaled, w.Hard)
		}
	}
}

// TestSuccessFormulaFPS checks the Step-1 transformation against the
// paper's worked Y(t).
func TestSuccessFormulaFPS(t *testing.T) {
	steps, err := BuildSteps(gen.FPS(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := boolexpr.NewAnd(
		boolexpr.NewOr(boolexpr.V("x1"), boolexpr.V("x2")),
		boolexpr.NewAnd(
			boolexpr.V("x3"),
			boolexpr.V("x4"),
			boolexpr.NewOr(boolexpr.V("x5"), boolexpr.NewAnd(boolexpr.V("x6"), boolexpr.V("x7"))),
		),
	)
	if !boolexpr.Equal(steps.SuccessFormula, boolexpr.Expr(want)) {
		t.Errorf("Y(t) = %v, want %v", steps.SuccessFormula, want)
	}
}

func TestStepsInstanceShape(t *testing.T) {
	steps, err := BuildSteps(gen.FPS(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Event variables must occupy DIMACS 1..7 in Events() order.
	for i, id := range []string{"x1", "x2", "x3", "x4", "x5", "x6", "x7"} {
		if steps.Encoding.VarOf[id] != i+1 {
			t.Errorf("VarOf[%s] = %d, want %d", id, steps.Encoding.VarOf[id], i+1)
		}
	}
	// All softs are positive units over event variables.
	for _, soft := range steps.Instance.Soft {
		if len(soft.Clause) != 1 || !soft.Clause[0].Pos() || soft.Clause[0].Var() > 7 {
			t.Errorf("soft clause %v is not a positive event unit", soft.Clause)
		}
	}
	if err := steps.Instance.Validate(); err != nil {
		t.Errorf("instance invalid: %v", err)
	}
}

// TestAnalyzeMatchesOracle cross-checks the full pipeline against
// exhaustive enumeration on random trees, with and without voting
// gates, both encodings, sequential and parallel.
func TestAnalyzeMatchesOracle(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 20; seed++ {
		tree, err := gen.Random(gen.Config{Events: 10, Seed: seed, VotingFrac: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		sets, err := mcs.Exhaustive(tree)
		if err != nil {
			t.Fatal(err)
		}
		_, wantProb := mcs.MaxProbability(sets, tree.Probabilities())

		for _, opts := range []Options{
			{Sequential: true},
			{Sequential: true, PlaistedGreenbaum: true},
			{},
		} {
			sol, err := Analyze(ctx, tree, opts)
			if err != nil {
				t.Fatalf("seed %d opts %+v: %v", seed, opts, err)
			}
			if math.Abs(sol.Probability-wantProb) > 1e-9*wantProb {
				t.Fatalf("seed %d opts %+v: probability %v, oracle %v",
					seed, opts, sol.Probability, wantProb)
			}
			ok, err := mcs.IsMinimalCutSet(tree, sol.CutSetIDs())
			if err != nil || !ok {
				t.Fatalf("seed %d: reported set %v is not a minimal cut set (%v)",
					seed, sol.CutSetIDs(), err)
			}
		}
	}
}

func TestAnalyzeBDDMatchesMaxSAT(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 15; seed++ {
		tree, err := gen.Random(gen.Config{Events: 12, Seed: seed, VotingFrac: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		viaSAT, err := Analyze(ctx, tree, Options{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		viaBDD, err := AnalyzeBDD(tree, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !mpmcsEqualProb(viaSAT, viaBDD) {
			t.Errorf("seed %d: MaxSAT %v (%v) vs BDD %v (%v)",
				seed, viaSAT.Probability, viaSAT.CutSetIDs(),
				viaBDD.Probability, viaBDD.CutSetIDs())
		}
	}
}

func TestAnalyzeTopKFPS(t *testing.T) {
	sols, err := AnalyzeTopK(context.Background(), gen.FPS(), 10, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	// FPS has exactly 5 minimal cut sets; enumeration must stop there.
	if len(sols) != 5 {
		t.Fatalf("got %d cut sets, want 5", len(sols))
	}
	wantSets := [][]string{
		{"x1", "x2"},
		{"x5", "x6"},
		{"x5", "x7"},
		{"x4"},
		{"x3"},
	}
	wantProbs := []float64{0.02, 0.005, 0.0025, 0.002, 0.001}
	for i, sol := range sols {
		if !reflect.DeepEqual(sol.CutSetIDs(), wantSets[i]) {
			t.Errorf("rank %d: %v, want %v", i+1, sol.CutSetIDs(), wantSets[i])
		}
		if math.Abs(sol.Probability-wantProbs[i]) > 1e-9 {
			t.Errorf("rank %d: probability %v, want %v", i+1, sol.Probability, wantProbs[i])
		}
	}
	// Probabilities non-increasing.
	for i := 1; i < len(sols); i++ {
		if sols[i].Probability > sols[i-1].Probability+1e-12 {
			t.Error("top-k probabilities increase")
		}
	}
}

// TestAnalyzeTopKMatchesOracle checks all three enumeration modes of
// the blocking-clause loop against the exhaustive minimal-cut-set
// oracle: top-k enumerates exactly the oracle's sets, the threshold
// query at the oracle's median probability returns exactly the sets at
// or above it, and each disjoint round is the most probable oracle set
// avoiding every event reported before it. Voting gates make the
// oracle's sets overlap, so the disjoint mode has something to skip.
func TestAnalyzeTopKMatchesOracle(t *testing.T) {
	ctx := context.Background()
	key := func(ids []string) string { return strings.Join(ids, ",") }
	for seed := int64(1); seed < 8; seed++ {
		tree, err := gen.Random(gen.Config{Events: 8, Seed: seed, VotingFrac: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		all, err := mcs.Exhaustive(tree)
		if err != nil {
			t.Fatal(err)
		}
		sols, err := AnalyzeTopK(ctx, tree, len(all)+3, Options{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(sols) != len(all) {
			t.Fatalf("seed %d: enumerated %d sets, oracle has %d", seed, len(sols), len(all))
		}
		seen := make(map[string]bool, len(sols))
		for _, sol := range sols {
			k := key(sol.CutSetIDs())
			if seen[k] {
				t.Fatalf("seed %d: duplicate cut set %v", seed, sol.CutSetIDs())
			}
			seen[k] = true
			ok, err := mcs.IsMinimalCutSet(tree, sol.CutSetIDs())
			if err != nil || !ok {
				t.Fatalf("seed %d: %v is not minimal (%v)", seed, sol.CutSetIDs(), err)
			}
		}

		// The oracle's sets in descending probability order.
		probs := tree.Probabilities()
		sort.SliceStable(all, func(i, j int) bool { return all[i].Probability(probs) > all[j].Probability(probs) })
		oracleProb := make(map[string]float64, len(all))
		for _, set := range all {
			oracleProb[key(set)] = set.Probability(probs)
		}

		// Threshold mode at the oracle's median probability.
		tau := all[len(all)/2].Probability(probs)
		above, err := AnalyzeAbove(ctx, tree, tau, Options{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, p := range oracleProb {
			if p >= tau {
				want++
			}
		}
		if len(above) != want {
			t.Fatalf("seed %d: %d sets above τ=%v, oracle has %d", seed, len(above), tau, want)
		}
		for _, sol := range above {
			p, ok := oracleProb[key(sol.CutSetIDs())]
			if !ok || !fp.Eq(p, sol.Probability) || p < tau {
				t.Fatalf("seed %d: threshold set %v (p=%v) is not an oracle set above τ=%v", seed, sol.CutSetIDs(), sol.Probability, tau)
			}
		}

		// Disjoint mode: the greedy pass over the ranked oracle sets
		// gives each round's probability.
		var wantDisjoint []float64
		taken := make(map[string]bool)
		for _, set := range all {
			free := true
			for _, id := range set {
				free = free && !taken[id]
			}
			if free {
				wantDisjoint = append(wantDisjoint, set.Probability(probs))
				for _, id := range set {
					taken[id] = true
				}
			}
		}
		disjoint, err := AnalyzeDisjoint(ctx, tree, len(all), Options{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(disjoint) != len(wantDisjoint) {
			t.Fatalf("seed %d: %d disjoint sets, oracle has %d", seed, len(disjoint), len(wantDisjoint))
		}
		used := make(map[string]bool)
		for i, sol := range disjoint {
			if !fp.Eq(sol.Probability, wantDisjoint[i]) {
				t.Fatalf("seed %d: disjoint rank %d p=%v, oracle p=%v", seed, i+1, sol.Probability, wantDisjoint[i])
			}
			ok, err := mcs.IsMinimalCutSet(tree, sol.CutSetIDs())
			if err != nil || !ok {
				t.Fatalf("seed %d: disjoint set %v is not minimal (%v)", seed, sol.CutSetIDs(), err)
			}
			for _, id := range sol.CutSetIDs() {
				if used[id] {
					t.Fatalf("seed %d: event %s reused across disjoint sets", seed, id)
				}
				used[id] = true
			}
		}
	}
}

// TestAnalyzeTopKBDDMatchesMaxSAT: the BDD ranked enumeration and the
// MaxSAT blocking-clause loop produce the same probability ranking.
func TestAnalyzeTopKBDDMatchesMaxSAT(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 8; seed++ {
		tree, err := gen.Random(gen.Config{Events: 9, Seed: seed, VotingFrac: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		viaSAT, err := AnalyzeTopK(ctx, tree, 6, Options{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		viaBDD, err := AnalyzeTopKBDD(tree, 6, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(viaSAT) != len(viaBDD) {
			t.Fatalf("seed %d: %d vs %d solutions", seed, len(viaSAT), len(viaBDD))
		}
		for i := range viaSAT {
			if !mpmcsEqualProb(viaSAT[i], viaBDD[i]) {
				t.Fatalf("seed %d rank %d: MaxSAT %v vs BDD %v",
					seed, i+1, viaSAT[i].Probability, viaBDD[i].Probability)
			}
		}
	}
	if _, err := AnalyzeTopKBDD(gen.FPS(), 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestAnalyzeTopKBadK(t *testing.T) {
	if _, err := AnalyzeTopK(context.Background(), gen.FPS(), 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestAnalyzeNoCutSet(t *testing.T) {
	tree := ft.New("impossible")
	if err := tree.AddEvent("a", 0); err != nil {
		t.Fatal(err)
	}
	if err := tree.AddEvent("b", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := tree.AddAnd("top", "a", "b"); err != nil {
		t.Fatal(err)
	}
	tree.SetTop("top")
	if _, err := Analyze(context.Background(), tree, Options{Sequential: true}); !errors.Is(err, ErrNoCutSet) {
		t.Errorf("got %v, want ErrNoCutSet", err)
	}
}

func TestAnalyzeZeroProbEventAvoided(t *testing.T) {
	// A p=0 event on one branch: the MPMCS must take the other branch.
	tree := ft.New("zero")
	if err := tree.AddEvent("impossible", 0); err != nil {
		t.Fatal(err)
	}
	if err := tree.AddEvent("likely", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := tree.AddOr("top", "impossible", "likely"); err != nil {
		t.Fatal(err)
	}
	tree.SetTop("top")
	sol, err := Analyze(context.Background(), tree, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sol.CutSetIDs(), []string{"likely"}) {
		t.Errorf("MPMCS = %v, want [likely]", sol.CutSetIDs())
	}
}

func TestAnalyzeCertainEventFree(t *testing.T) {
	// p=1 events cost nothing; MPMCS probability stays 1·0.3.
	tree := ft.New("certain")
	if err := tree.AddEvent("always", 1); err != nil {
		t.Fatal(err)
	}
	if err := tree.AddEvent("rare", 0.3); err != nil {
		t.Fatal(err)
	}
	if err := tree.AddAnd("top", "always", "rare"); err != nil {
		t.Fatal(err)
	}
	tree.SetTop("top")
	sol, err := Analyze(context.Background(), tree, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sol.CutSetIDs(), []string{"always", "rare"}) {
		t.Errorf("MPMCS = %v, want [always rare]", sol.CutSetIDs())
	}
	if math.Abs(sol.Probability-0.3) > 1e-12 {
		t.Errorf("probability = %v, want 0.3", sol.Probability)
	}
}

func TestAnalyzeTimeout(t *testing.T) {
	tree, err := gen.Random(gen.Config{Events: 4000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Analyze(context.Background(), tree, Options{Timeout: time.Nanosecond})
	if err == nil {
		t.Error("nanosecond timeout did not fail")
	}
}

func TestSolutionJSON(t *testing.T) {
	sol, err := Analyze(context.Background(), gen.FPS(), Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(sol)
	if err != nil {
		t.Fatal(err)
	}
	var back Solution
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Probability != sol.Probability || len(back.MPMCS) != len(sol.MPMCS) {
		t.Error("JSON round trip lost data")
	}
	if len(back.Weights) != 7 {
		t.Errorf("weights table lost: %d entries", len(back.Weights))
	}
}

func TestLogWeightsEdgeCases(t *testing.T) {
	events := []*ft.BasicEvent{
		{ID: "zero", Prob: 0},
		{ID: "one", Prob: 1},
		{ID: "tiny", Prob: 1e-12},
		{ID: "nearOne", Prob: 1 - 1e-13},
	}
	weights := LogWeights(events, DefaultScale)
	if !weights[0].Hard || !math.IsInf(weights[0].Weight, 1) {
		t.Errorf("p=0: %+v", weights[0])
	}
	if weights[1].Hard || weights[1].Scaled != 0 {
		t.Errorf("p=1: %+v", weights[1])
	}
	if weights[2].Scaled <= 0 {
		t.Errorf("tiny probability should have a large positive weight: %+v", weights[2])
	}
	if weights[3].Scaled < 1 {
		t.Errorf("near-one probability must clamp to weight 1: %+v", weights[3])
	}
}

func TestAnalyzeInvalidTree(t *testing.T) {
	if _, err := Analyze(context.Background(), ft.New("bad"), Options{}); err == nil {
		t.Error("invalid tree accepted")
	}
	if _, err := BuildSteps(ft.New("bad"), Options{}); err == nil {
		t.Error("invalid tree accepted by BuildSteps")
	}
	if _, err := AnalyzeBDD(ft.New("bad"), Options{}); err == nil {
		t.Error("invalid tree accepted by AnalyzeBDD")
	}
}

func TestAnalyzeVotingGateTree(t *testing.T) {
	sol, err := Analyze(context.Background(), gen.RedundantSCADA(), Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	// Cut sets: pairs of {c1,c2,c3} (2-of-3), {n1,n2}, {ma}, {hw}, {sw}.
	// Probabilities: sw=0.003 is the single most likely.
	if !reflect.DeepEqual(sol.CutSetIDs(), []string{"sw"}) {
		t.Errorf("MPMCS = %v, want [sw]", sol.CutSetIDs())
	}
	if math.Abs(sol.Probability-0.003) > 1e-12 {
		t.Errorf("probability = %v", sol.Probability)
	}
}

// TestAnalyzeStratifiedWinsPinnedTree keeps wmsu1-strat in the default
// portfolio. The full race proves this tree optimal in well under a
// second; without the stratified member it is still only FEASIBLE
// when the 10 s budget runs out.
func TestAnalyzeStratifiedWinsPinnedTree(t *testing.T) {
	tree, err := gen.Random(gen.Config{Events: 879, VotingFrac: 0.1, Seed: 643176725})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Analyze(context.Background(), tree, Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != maxsat.Optimal.String() {
		t.Errorf("status = %s, want %s", sol.Status, maxsat.Optimal)
	}
}

// TestAnalyzeSharedGateLadder: the top of a 40-level ladder is reached
// along 2^40 paths through shared gates. Every step of the pipeline
// must visit a shared gate once, so the analysis takes moments.
func TestAnalyzeSharedGateLadder(t *testing.T) {
	tree := gen.Ladder(40)
	type outcome struct {
		sol *Solution
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		sol, err := Analyze(context.Background(), tree, Options{})
		done <- outcome{sol, err}
	}()
	var got outcome
	select {
	case got = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Analyze on a 40-level ladder took over 10s: a shared gate is walked once per path")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.sol.Status != "OPTIMAL" {
		t.Errorf("status %s, want OPTIMAL", got.sol.Status)
	}
	if ids := got.sol.CutSetIDs(); !reflect.DeepEqual(ids, []string{"e40"}) {
		t.Errorf("MPMCS %v, want [e40]", ids)
	}
	if err := VerifySolution(tree, got.sol); err != nil {
		t.Error(err)
	}
}
