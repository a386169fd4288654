package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/gen"
)

// Trees built from independent modules: a module optimum that is not
// the global one, nested modules, and modules that can never occur
// (an AND over a p = 0 event).
var moduleTrees = []struct {
	text      string
	wantSet   string // MPMCS members, comma-separated; "" = no cut set
	wantNoCut bool
}{
	{`tree four-modules
event a1 0.3
event a2 0.4
event a3 0.5
event b1 0.01
event b2 0.002
event b3 0.03
event c1 0.1
event c2 0.2
event c3 0.25
event d1 0.5
event d2 0.8
gate m1 and a1 a2 a3
gate m2 or b1 b2 b3
gate m3 2of3 c1 c2 c3
gate m4 and d1 d2
gate top or m1 m2 m3 m4
top top`, "d1,d2", false},
	// m1's full AND (0.036) beats m2's best single event (0.03) and
	// the loose e0 (0.01).
	{`tree modular
event e0 0.01
event e1 0.3
event e2 0.4
event e3 0.5
event e4 0.6
event e5 0.01
event e6 0.002
event e7 0.03
event e8 0.004
gate m1 and e1 e2 e3 e4
gate m2 or e5 e6 e7 e8
gate top or m1 m2 e0
top top`, "e1,e2,e3,e4", false},
	{`tree nested
event i1 0.2
event i2 0.2
event i3 0.2
event i4 0.2
event x1 0.2
event x2 0.2
event x3 0.2
event o1 0.2
event o2 0.2
event o3 0.2
event o4 0.2
gate inner and i1 i2 i3 i4
gate mid or inner x1 x2 x3
gate top and mid o1 o2 o3 o4
top top`, "", false},
	{`tree impossible-module
event z 0
event a1 0.2
event a2 0.3
event b1 0.1
event b2 0.4
gate m1 and z a1 a2
gate m2 and b1 b2
gate top or m1 m2
top top`, "b1,b2", false},
	{`tree impossible-module-and
event z 0
event a1 0.2
event a2 0.2
event a3 0.2
event b1 0.2
event b2 0.2
event b3 0.2
event b4 0.2
gate m1 and z a1 a2 a3
gate m2 and b1 b2 b3 b4
gate top or m1 m2
top top`, "b1,b2,b3,b4", false},
	{`tree blocked
event z 0
event a1 0.2
event a2 0.3
event b1 0.1
event b2 0.4
gate m1 and z a1 a2
gate m2 or b1 b2
gate top and m1 m2
top top`, "", true},
	{`tree impossible
event z 0
event a1 0.2
event a2 0.2
event a3 0.2
event b1 0.2
event b2 0.2
event b3 0.2
event b4 0.2
gate m1 and z a1 a2 a3
gate m2 or b1 b2 b3 b4
gate top and m1 m2
top top`, "", true},
}

func readModuleTree(t *testing.T, text string) *ft.Tree {
	t.Helper()
	tree, err := ft.ReadText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestAnalyzeModularTreesMatchBDD: on trees made of independent
// modules the one-instance solve finds the BDD oracle's optimum, and a
// top that needs an impossible module has no cut set.
func TestAnalyzeModularTreesMatchBDD(t *testing.T) {
	for _, tc := range moduleTrees {
		tree := readModuleTree(t, tc.text)
		t.Run(tree.Name(), func(t *testing.T) {
			sol, err := Analyze(context.Background(), tree, Options{Sequential: true})
			if tc.wantNoCut {
				if !errors.Is(err, ErrNoCutSet) {
					t.Fatalf("got %v, want ErrNoCutSet", err)
				}
				if _, err := AnalyzeBDD(tree, Options{}); !errors.Is(err, ErrZeroProbability) {
					t.Fatalf("BDD oracle: got %v, want ErrZeroProbability", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := AnalyzeBDD(tree, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != "OPTIMAL" || !mpmcsEqualProb(sol, oracle) {
				t.Fatalf("%s p=%v %v, BDD p=%v %v", sol.Status, sol.Probability, sol.CutSetIDs(),
					oracle.Probability, oracle.CutSetIDs())
			}
			if err := VerifySolution(tree, sol); err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(sol.CutSetIDs(), ","); tc.wantSet != "" && got != tc.wantSet {
				t.Fatalf("MPMCS = %s, want %s", got, tc.wantSet)
			}
		})
	}
}

// An analysis whose deadline has already passed, with an engine that
// cannot answer, reports ErrNoAnswer wrapping context.DeadlineExceeded,
// never another error.
func TestAnalyzeExpiredDeadlineIsNoAnswer(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	tree := readModuleTree(t, moduleTrees[0].text)
	_, err := Analyze(ctx, tree, Options{Sequential: true, Engines: blockingEngines()})
	if !errors.Is(err, ErrNoAnswer) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want ErrNoAnswer wrapping context.DeadlineExceeded", err)
	}
}

// Random voting trees on which a solve split into module quotients
// ended FEASIBLE at a 10 s deadline; one instance of the whole tree
// proves the optimum in well under a second.
func TestAnalyzeVotingTreesOptimal(t *testing.T) {
	for _, cfg := range []gen.Config{
		{Events: 466, VotingFrac: 0.1, Seed: 5010},
		{Events: 1500, VotingFrac: 0.1, Seed: 12},
	} {
		tree, err := gen.Random(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := Analyze(context.Background(), tree, Options{Timeout: 10 * time.Second})
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if sol.Status != "OPTIMAL" {
			t.Fatalf("%+v: status %s, want OPTIMAL", cfg, sol.Status)
		}
		if err := VerifySolution(tree, sol); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	}
}
