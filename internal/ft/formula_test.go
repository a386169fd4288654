package ft

import (
	"testing"

	"mpmcs4fta/internal/boolexpr"
)

func TestFormulaFPS(t *testing.T) {
	tree := buildFPS(t)
	f, err := tree.Formula()
	if err != nil {
		t.Fatal(err)
	}
	// The structure function must agree with direct tree evaluation on
	// every assignment.
	vars := boolexpr.Vars(f)
	if len(vars) != 7 {
		t.Fatalf("formula has %d vars, want 7", len(vars))
	}
	boolexpr.AllAssignments(vars, func(assign map[string]bool) bool {
		want, err := tree.Eval(assign)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Eval(assign); got != want {
			t.Fatalf("formula and tree disagree under %v: %v vs %v", assign, got, want)
		}
		return true
	})
}

func TestFormulaInvalid(t *testing.T) {
	tree := New("t")
	if _, err := tree.Formula(); err == nil {
		t.Error("Formula on invalid tree should fail")
	}
}

func TestFormulaVoting(t *testing.T) {
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
	f, err := tree.Formula()
	if err != nil {
		t.Fatal(err)
	}
	want := boolexpr.NewAtLeast(2, boolexpr.V("a"), boolexpr.V("b"), boolexpr.V("c"))
	if !boolexpr.Equal(f, want) {
		t.Errorf("Formula = %v, want %v", f, want)
	}
}

// TestSuccessFormulaDuality verifies X(t) = ¬f(t) under the variable
// renaming y = ¬x, i.e. the paper's Step-1 identity, on the FPS tree.
func TestSuccessFormulaDuality(t *testing.T) {
	tree := buildFPS(t)
	f, err := tree.Formula()
	if err != nil {
		t.Fatal(err)
	}
	y := boolexpr.Dual(f)
	vars := boolexpr.Vars(f)
	boolexpr.AllAssignments(vars, func(assign map[string]bool) bool {
		comp := make(map[string]bool, len(vars))
		for _, v := range vars {
			comp[v] = !assign[v]
		}
		if y.Eval(comp) != !f.Eval(assign) {
			t.Fatalf("success formula duality violated under %v", assign)
		}
		return true
	})
}

func TestFormulaSharedSubtreeConsistent(t *testing.T) {
	tree := New("dag")
	for _, id := range []string{"a", "b"} {
		if err := tree.AddEvent(id, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.AddAnd("shared", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := tree.AddOr("root", "shared", "shared"); err != nil {
		t.Fatal(err)
	}
	tree.SetTop("root")
	f, err := tree.Formula()
	if err != nil {
		t.Fatal(err)
	}
	boolexpr.AllAssignments([]string{"a", "b"}, func(assign map[string]bool) bool {
		want, err := tree.Eval(assign)
		if err != nil {
			t.Fatal(err)
		}
		if f.Eval(assign) != want {
			t.Fatalf("disagreement under %v", assign)
		}
		return true
	})
}
