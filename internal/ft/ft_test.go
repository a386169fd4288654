package ft

import (
	"errors"
	"sync"
	"testing"
)

// buildFPS constructs the paper's Fig. 1 Fire Protection System tree.
func buildFPS(t *testing.T) *Tree {
	t.Helper()
	tree := New("FPS")
	events := []struct {
		id   string
		prob float64
	}{
		{"x1", 0.2}, {"x2", 0.1}, {"x3", 0.001}, {"x4", 0.002},
		{"x5", 0.05}, {"x6", 0.1}, {"x7", 0.05},
	}
	for _, e := range events {
		if err := tree.AddEvent(e.id, e.prob); err != nil {
			t.Fatalf("AddEvent(%s): %v", e.id, err)
		}
	}
	mustAdd := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(tree.AddAnd("detection", "x1", "x2"))
	mustAdd(tree.AddOr("remote", "x6", "x7"))
	mustAdd(tree.AddAnd("trigger", "x5", "remote"))
	mustAdd(tree.AddOr("suppression", "x3", "x4", "trigger"))
	mustAdd(tree.AddOr("top", "detection", "suppression"))
	tree.SetTop("top")
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return tree
}

func TestBuildAndAccessors(t *testing.T) {
	tree := buildFPS(t)
	if tree.Name() != "FPS" {
		t.Errorf("Name = %q", tree.Name())
	}
	if tree.Top() != "top" {
		t.Errorf("Top = %q", tree.Top())
	}
	if tree.NumEvents() != 7 || tree.NumGates() != 5 {
		t.Errorf("counts = %d events, %d gates; want 7, 5", tree.NumEvents(), tree.NumGates())
	}
	if e := tree.Event("x1"); e == nil || e.Prob != 0.2 {
		t.Errorf("Event(x1) = %+v", e)
	}
	if g := tree.Gate("detection"); g == nil || g.Type != GateAnd || len(g.Inputs) != 2 {
		t.Errorf("Gate(detection) = %+v", g)
	}
	if tree.Event("detection") != nil || tree.Gate("x1") != nil {
		t.Error("cross-kind lookups should return nil")
	}
	if !tree.HasNode("x3") || tree.HasNode("nope") {
		t.Error("HasNode misbehaves")
	}
}

func TestEventsOrderDeterministic(t *testing.T) {
	tree := buildFPS(t)
	events := tree.Events()
	want := []string{"x1", "x2", "x3", "x4", "x5", "x6", "x7"}
	for i, e := range events {
		if e.ID != want[i] {
			t.Fatalf("Events()[%d] = %s, want %s", i, e.ID, want[i])
		}
	}
	gates := tree.Gates()
	wantGates := []string{"detection", "remote", "trigger", "suppression", "top"}
	for i, g := range gates {
		if g.ID != wantGates[i] {
			t.Fatalf("Gates()[%d] = %s, want %s", i, g.ID, wantGates[i])
		}
	}
}

func TestAddErrors(t *testing.T) {
	tree := New("t")
	if err := tree.AddEvent("", 0.5); !errors.Is(err, ErrEmptyID) {
		t.Errorf("empty id: got %v", err)
	}
	if err := tree.AddEvent("a", -0.1); !errors.Is(err, ErrBadProb) {
		t.Errorf("negative prob: got %v", err)
	}
	if err := tree.AddEvent("a", 1.5); !errors.Is(err, ErrBadProb) {
		t.Errorf("prob > 1: got %v", err)
	}
	if err := tree.AddEvent("a", 0.5); err != nil {
		t.Fatalf("valid event: %v", err)
	}
	if err := tree.AddEvent("a", 0.5); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate event: got %v", err)
	}
	if err := tree.AddAnd("a", "x"); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("gate with event id: got %v", err)
	}
	if err := tree.AddAnd("g"); !errors.Is(err, ErrNoInputs) {
		t.Errorf("gate without inputs: got %v", err)
	}
	if err := tree.AddVoting("g", 0, "a"); !errors.Is(err, ErrBadThreshold) {
		t.Errorf("k=0 voting: got %v", err)
	}
	if err := tree.AddVoting("g", 3, "a", "a"); !errors.Is(err, ErrBadThreshold) {
		t.Errorf("k>n voting: got %v", err)
	}
	if err := tree.AddGate("g", "", GateType(99), 0, "a"); err == nil {
		t.Error("unknown gate type accepted")
	}
}

func TestValidateErrors(t *testing.T) {
	t.Run("no top", func(t *testing.T) {
		tree := New("t")
		if err := tree.Validate(); !errors.Is(err, ErrNoTop) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("unknown top", func(t *testing.T) {
		tree := New("t")
		tree.SetTop("ghost")
		if err := tree.Validate(); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("top is event", func(t *testing.T) {
		tree := New("t")
		if err := tree.AddEvent("e", 0.1); err != nil {
			t.Fatal(err)
		}
		tree.SetTop("e")
		if err := tree.Validate(); !errors.Is(err, ErrTopIsEvent) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("dangling input", func(t *testing.T) {
		tree := New("t")
		if err := tree.AddOr("g", "ghost"); err != nil {
			t.Fatal(err)
		}
		tree.SetTop("g")
		if err := tree.Validate(); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("cycle", func(t *testing.T) {
		tree := New("t")
		if err := tree.AddOr("a", "b"); err != nil {
			t.Fatal(err)
		}
		if err := tree.AddOr("b", "a"); err != nil {
			t.Fatal(err)
		}
		tree.SetTop("a")
		if err := tree.Validate(); !errors.Is(err, ErrCycle) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("self loop", func(t *testing.T) {
		tree := New("t")
		if err := tree.AddAnd("a", "a"); err != nil {
			t.Fatal(err)
		}
		tree.SetTop("a")
		if err := tree.Validate(); !errors.Is(err, ErrCycle) {
			t.Errorf("got %v", err)
		}
	})
}

// Validate remembers a success, so every mutator that can break the
// tree must make the next Validate check it again.
func TestValidateAfterMutation(t *testing.T) {
	t.Run("gate with unknown input", func(t *testing.T) {
		tree := buildFPS(t)
		if err := tree.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := tree.AddOr("g", "x1", "ghost"); err != nil {
			t.Fatal(err)
		}
		if err := tree.Validate(); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("after adding a dangling gate: got %v, want ErrUnknownNode", err)
		}
		// Adding the missing node repairs the tree.
		if err := tree.AddEvent("ghost", 0.1); err != nil {
			t.Fatal(err)
		}
		if err := tree.Validate(); err != nil {
			t.Errorf("after adding the missing event: %v", err)
		}
	})
	t.Run("top set to an event", func(t *testing.T) {
		tree := buildFPS(t)
		if err := tree.Validate(); err != nil {
			t.Fatal(err)
		}
		tree.SetTop("x1")
		if err := tree.Validate(); !errors.Is(err, ErrTopIsEvent) {
			t.Errorf("after SetTop on an event: got %v, want ErrTopIsEvent", err)
		}
	})
	t.Run("concurrent validation", func(t *testing.T) {
		tree := buildFPS(t)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := tree.Validate(); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	})
}

func TestEvalFPS(t *testing.T) {
	tree := buildFPS(t)
	tests := []struct {
		name   string
		failed map[string]bool
		want   bool
	}{
		{"nothing failed", nil, false},
		{"both sensors", map[string]bool{"x1": true, "x2": true}, true},
		{"single sensor", map[string]bool{"x1": true}, false},
		{"no water", map[string]bool{"x3": true}, true},
		{"trigger chain", map[string]bool{"x5": true, "x7": true}, true},
		{"trigger incomplete", map[string]bool{"x6": true, "x7": true}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := tree.Eval(tt.failed)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("Eval(%v) = %v, want %v", tt.failed, got, tt.want)
			}
		})
	}
}

func TestEvalVoting(t *testing.T) {
	tree := New("vote")
	for _, id := range []string{"a", "b", "c"} {
		if err := tree.AddEvent(id, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.AddVoting("v", 2, "a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	tree.SetTop("v")
	got, err := tree.Eval(map[string]bool{"a": true, "c": true})
	if err != nil || !got {
		t.Errorf("2-of-3 with two failures: got %v, %v", got, err)
	}
	got, err = tree.Eval(map[string]bool{"b": true})
	if err != nil || got {
		t.Errorf("2-of-3 with one failure: got %v, %v", got, err)
	}
}

func TestEvalInvalidTree(t *testing.T) {
	tree := New("t")
	if _, err := tree.Eval(nil); err == nil {
		t.Error("Eval on invalid tree should fail")
	}
}

func TestSharedSubtreeDAG(t *testing.T) {
	// A DAG where gate "shared" feeds two parents.
	tree := New("dag")
	for _, id := range []string{"a", "b", "c"} {
		if err := tree.AddEvent(id, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.AddOr("shared", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := tree.AddAnd("left", "shared", "c"); err != nil {
		t.Fatal(err)
	}
	if err := tree.AddAnd("right", "shared", "a"); err != nil {
		t.Fatal(err)
	}
	if err := tree.AddOr("root", "left", "right"); err != nil {
		t.Fatal(err)
	}
	tree.SetTop("root")
	if err := tree.Validate(); err != nil {
		t.Fatalf("DAG should validate: %v", err)
	}
	got, err := tree.Eval(map[string]bool{"a": true})
	if err != nil || !got {
		t.Errorf("Eval = %v, %v; want true (right = shared & a)", got, err)
	}
}

func TestSetProb(t *testing.T) {
	tree := buildFPS(t)
	if err := tree.SetProb("x1", 0.9); err != nil {
		t.Fatal(err)
	}
	if tree.Event("x1").Prob != 0.9 {
		t.Error("SetProb did not update")
	}
	if err := tree.SetProb("ghost", 0.5); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("SetProb unknown: %v", err)
	}
	if err := tree.SetProb("x1", 2); !errors.Is(err, ErrBadProb) {
		t.Errorf("SetProb bad prob: %v", err)
	}
}

func TestProbabilities(t *testing.T) {
	tree := buildFPS(t)
	probs := tree.Probabilities()
	if len(probs) != 7 || probs["x3"] != 0.001 {
		t.Errorf("Probabilities = %v", probs)
	}
}

func TestClone(t *testing.T) {
	tree := buildFPS(t)
	clone := tree.Clone()
	if err := clone.SetProb("x1", 0.99); err != nil {
		t.Fatal(err)
	}
	if tree.Event("x1").Prob != 0.2 {
		t.Error("mutating the clone changed the original")
	}
	clone.Gate("detection").Inputs[0] = "x9"
	if tree.Gate("detection").Inputs[0] != "x1" {
		t.Error("clone shares gate input slices with the original")
	}
}

func TestStats(t *testing.T) {
	tree := buildFPS(t)
	s := tree.Stats()
	want := Stats{Events: 7, Gates: 5, AndGates: 2, OrGates: 3, Depth: 5}
	if s != want {
		t.Errorf("Stats = %+v, want %+v", s, want)
	}
}

func TestStatsInvalidTreeDepthZero(t *testing.T) {
	tree := New("t")
	if err := tree.AddEvent("a", 0.1); err != nil {
		t.Fatal(err)
	}
	if d := tree.Stats().Depth; d != 0 {
		t.Errorf("Depth = %d on invalid tree, want 0", d)
	}
}

func TestGateTypeString(t *testing.T) {
	if GateAnd.String() != "and" || GateOr.String() != "or" || GateVoting.String() != "voting" {
		t.Error("GateType.String mismatch")
	}
	if GateType(42).String() != "GateType(42)" {
		t.Error("unknown GateType.String mismatch")
	}
}
