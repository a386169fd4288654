package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/obs"
)

// fourModuleTree builds top = OR(m1..m4) with four independent modules
// of distinct optima; the global MPMCS is m4's {d1, d2} at p = 0.4.
func fourModuleTree(t *testing.T) *ft.Tree {
	t.Helper()
	tree := ft.New("four-modules")
	add := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for id, p := range map[string]float64{
		"a1": 0.3, "a2": 0.4, "a3": 0.5,
		"b1": 0.01, "b2": 0.002, "b3": 0.03,
		"c1": 0.1, "c2": 0.2, "c3": 0.25,
		"d1": 0.5, "d2": 0.8,
	} {
		add(tree.AddEvent(id, p))
	}
	add(tree.AddAnd("m1", "a1", "a2", "a3"))       // 0.06
	add(tree.AddOr("m2", "b1", "b2", "b3"))        // 0.03
	add(tree.AddVoting("m3", 2, "c1", "c2", "c3")) // 0.05
	add(tree.AddAnd("m4", "d1", "d2"))             // 0.40 — the winner
	add(tree.AddOr("top", "m1", "m2", "m3", "m4"))
	tree.SetTop("top")
	return tree
}

// TestAnalyzeDecomposedMatchesMonolithic: on a tree with ≥4 independent
// modules, the decomposed path must return the identical optimal cut
// set, cost and probability as the monolithic path.
func TestAnalyzeDecomposedMatchesMonolithic(t *testing.T) {
	tree := fourModuleTree(t)
	metrics := obs.NewMetrics()
	decomposed, err := Analyze(context.Background(), tree, Options{
		Sequential:         true,
		DecomposeMinEvents: 2,
		Metrics:            metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := metrics.Get("modular_analyses"); got != 1 {
		t.Fatalf("modular_analyses = %d: the decomposed path did not run", got)
	}
	modules := metrics.Get("modules_solved")
	if modules < 4 {
		t.Fatalf("modules_solved = %d, want ≥4", modules)
	}
	// Every module of this tree has a cut set, so each module race
	// counts exactly one winner.
	var winners int64
	for name, n := range metrics.Snapshot() {
		if strings.HasPrefix(name, "winner.") {
			winners += n
		}
	}
	if winners != modules {
		t.Fatalf("winner.* counters sum to %d, want one per module (%d)", winners, modules)
	}

	monolithic, err := Analyze(context.Background(), tree, Options{
		Sequential:  true,
		NoDecompose: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	if got, want := strings.Join(decomposed.CutSetIDs(), ","), strings.Join(monolithic.CutSetIDs(), ","); got != want {
		t.Fatalf("decomposed cut set %s, monolithic %s", got, want)
	}
	if got, want := decomposed.Probability, monolithic.Probability; math.Abs(got-want) > 1e-9*math.Max(got, want) {
		t.Fatalf("probability %v vs %v", got, want)
	}
	if math.Abs(decomposed.LogCost-monolithic.LogCost) > 1e-9 {
		t.Fatalf("logCost %v vs %v", decomposed.LogCost, monolithic.LogCost)
	}
	if decomposed.Status != "OPTIMAL" || monolithic.Status != "OPTIMAL" {
		t.Fatalf("status %s vs %s, want OPTIMAL", decomposed.Status, monolithic.Status)
	}
	if got := strings.Join(decomposed.CutSetIDs(), ","); got != "d1,d2" {
		t.Fatalf("MPMCS = %s, want d1,d2", got)
	}
	if math.Abs(decomposed.Probability-0.4) > 1e-9 {
		t.Fatalf("probability = %v, want 0.4", decomposed.Probability)
	}
	// Aggregated instance sizes cover every module solve.
	if decomposed.Stats.Vars <= 0 || decomposed.Stats.SoftClauses < tree.NumEvents() {
		t.Fatalf("aggregated stats look empty: %+v", decomposed.Stats)
	}
	if decomposed.Solver == "" {
		t.Fatal("decomposed solution has no winning engine")
	}
	// Both report the full Table-I transform over the original events.
	if len(decomposed.Weights) != tree.NumEvents() {
		t.Fatalf("weights table has %d rows, want %d", len(decomposed.Weights), tree.NumEvents())
	}
}

// TestAnalyzeTopK1RoutesThroughDecomposition: the CLI's default top-1
// query goes through Analyze (and so the planner) when a plan exists.
func TestAnalyzeTopK1RoutesThroughDecomposition(t *testing.T) {
	tree := fourModuleTree(t)
	metrics := obs.NewMetrics()
	out, err := AnalyzeTopK(context.Background(), tree, 1, Options{
		Sequential:         true,
		DecomposeMinEvents: 2,
		Metrics:            metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("top-1 returned %d solutions", len(out))
	}
	if got := metrics.Get("modular_analyses"); got != 1 {
		t.Fatalf("modular_analyses = %d: top-1 did not route through decomposition", got)
	}
	if got := strings.Join(out[0].CutSetIDs(), ","); got != "d1,d2" {
		t.Fatalf("MPMCS = %s, want d1,d2", got)
	}

	// k > 1 must stay monolithic: blocking clauses are global.
	multi, err := AnalyzeTopK(context.Background(), tree, 3, Options{
		Sequential:         true,
		DecomposeMinEvents: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi) != 3 {
		t.Fatalf("top-3 returned %d solutions", len(multi))
	}
	if got := strings.Join(multi[0].CutSetIDs(), ","); got != "d1,d2" {
		t.Fatalf("top-3 first set = %s, want d1,d2", got)
	}
	for i := 1; i < len(multi); i++ {
		if multi[i].Probability > multi[i-1].Probability {
			t.Fatalf("top-k out of order at %d: %v > %v", i, multi[i].Probability, multi[i-1].Probability)
		}
	}
}

// TestAnalyzeNoDecomposeMatchesDefault: the flag-off fallback and the
// default path agree on a modular tree even at the default MinEvents
// threshold (where this small tree stays monolithic anyway).
func TestAnalyzeNoDecomposeMatchesDefault(t *testing.T) {
	tree := fourModuleTree(t)
	def, err := Analyze(context.Background(), tree, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Analyze(context.Background(), tree, Options{Sequential: true, NoDecompose: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(def.CutSetIDs(), ",") != strings.Join(off.CutSetIDs(), ",") {
		t.Fatalf("cut sets differ: %v vs %v", def.CutSetIDs(), off.CutSetIDs())
	}
}

// TestAnalyzeDecomposedImpossibleModule: a module that can never occur
// becomes a hard pseudo-event and the optimum comes from elsewhere;
// a tree whose top depends on the impossible module yields ErrNoCutSet
// exactly like the monolithic path.
func TestAnalyzeDecomposedImpossibleModule(t *testing.T) {
	tree := ft.New("impossible-module")
	add := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	add(tree.AddEvent("z", 0))
	for id, p := range map[string]float64{"a1": 0.2, "a2": 0.3, "b1": 0.1, "b2": 0.4} {
		add(tree.AddEvent(id, p))
	}
	add(tree.AddAnd("m1", "z", "a1", "a2"))
	add(tree.AddAnd("m2", "b1", "b2"))
	add(tree.AddOr("top", "m1", "m2"))
	tree.SetTop("top")

	sol, err := Analyze(context.Background(), tree, Options{Sequential: true, DecomposeMinEvents: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(sol.CutSetIDs(), ","); got != "b1,b2" {
		t.Fatalf("MPMCS = %s, want b1,b2", got)
	}

	blocked := ft.New("blocked")
	add(blocked.AddEvent("z", 0))
	for id, p := range map[string]float64{"a1": 0.2, "a2": 0.3, "b1": 0.1, "b2": 0.4} {
		add(blocked.AddEvent(id, p))
	}
	add(blocked.AddAnd("m1", "z", "a1", "a2"))
	add(blocked.AddOr("m2", "b1", "b2"))
	add(blocked.AddAnd("top", "m1", "m2"))
	blocked.SetTop("top")
	if _, err := Analyze(context.Background(), blocked, Options{Sequential: true, DecomposeMinEvents: 2}); err != ErrNoCutSet {
		t.Fatalf("blocked tree error = %v, want ErrNoCutSet", err)
	}
}

// A deadline that expires before the plan's modules run must surface as
// ErrNoAnswer (NO_ANSWER, exit 4, HTTP 504), not as the internal failure
// "decomp: submit module …: context deadline exceeded".
func TestAnalyzeDecomposedDeadlineIsNoAnswer(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := Analyze(ctx, fourModuleTree(t), Options{Sequential: true, DecomposeMinEvents: 2})
	if !errors.Is(err, ErrNoAnswer) {
		t.Fatalf("got %v, want ErrNoAnswer", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("got %v, want it to wrap context.DeadlineExceeded", err)
	}
}
