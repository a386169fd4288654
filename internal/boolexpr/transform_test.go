package boolexpr

import (
	"math/rand"
	"testing"
)

// complementAssign returns the pointwise complement of assign over vars.
func complementAssign(vars []string, assign map[string]bool) map[string]bool {
	out := make(map[string]bool, len(vars))
	for _, v := range vars {
		out[v] = !assign[v]
	}
	return out
}

// TestDualFPS checks the paper's worked Step-1 example: Y(t) for the FPS
// tree is (y1|y2) & (y3 & y4 & (y5 | (y6 & y7))).
func TestDualFPS(t *testing.T) {
	f := fpsFormula()
	want := NewAnd(
		NewOr(V("x1"), V("x2")),
		NewAnd(
			V("x3"),
			V("x4"),
			NewOr(V("x5"), NewAnd(V("x6"), V("x7"))),
		),
	)
	got := Dual(f)
	if !Equal(got, Expr(want)) {
		t.Errorf("Dual(f) = %v, want %v", got, want)
	}
}

// TestDualDuality verifies Dual(f)(y) = ¬f(¬y) exhaustively on random
// expressions — the core identity behind the success-tree transformation.
func TestDualDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultRandomConfig()
	cfg.NumVars = 6
	cfg.AllowConst = true
	for trial := 0; trial < 200; trial++ {
		f := Random(rng, cfg)
		d := Dual(f)
		vars := Vars(f)
		AllAssignments(vars, func(assign map[string]bool) bool {
			comp := complementAssign(vars, assign)
			if d.Eval(assign) != !f.Eval(comp) {
				t.Fatalf("duality violated for %v under %v", f, assign)
			}
			return true
		})
	}
}

func TestDualInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := DefaultRandomConfig()
	for trial := 0; trial < 100; trial++ {
		f := Random(rng, cfg)
		if !Equal(Dual(Dual(f)), f) {
			t.Fatalf("Dual(Dual(f)) != f for %v", f)
		}
	}
}

func TestSimplifyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cfg := DefaultRandomConfig()
	cfg.NumVars = 6
	cfg.AllowConst = true
	for trial := 0; trial < 200; trial++ {
		f := Random(rng, cfg)
		assertEquivalent(t, f, Simplify(f))
	}
}

func TestSimplifyCases(t *testing.T) {
	tests := []struct {
		name string
		give Expr
		want Expr
	}{
		{"double negation", Not{X: Not{X: V("a")}}, V("a")},
		{"and with false", NewAnd(V("a"), False), False},
		{"or with true", NewOr(V("a"), True), True},
		{"and drop true", NewAnd(V("a"), True, V("b")), NewAnd(V("a"), V("b"))},
		{"or drop false", NewOr(V("a"), False), V("a")},
		{"flatten and", NewAnd(V("a"), NewAnd(V("b"), V("c"))), NewAnd(V("a"), V("b"), V("c"))},
		{"flatten or", NewOr(NewOr(V("a"), V("b")), V("c")), NewOr(V("a"), V("b"), V("c"))},
		{"empty and", And{}, True},
		{"empty or", Or{}, False},
		{"atleast 1 is or", NewAtLeast(1, V("a"), V("b")), NewOr(V("a"), V("b"))},
		{"atleast n is and", NewAtLeast(2, V("a"), V("b")), NewAnd(V("a"), V("b"))},
		{"atleast 0 is true", NewAtLeast(0, V("a"), V("b")), True},
		{"atleast too big", NewAtLeast(3, V("a"), V("b")), False},
		{"not const", Not{X: True}, False},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Simplify(tt.give); !Equal(got, tt.want) {
				t.Errorf("Simplify(%v) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestExpandAtLeastEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cfg := DefaultRandomConfig()
	cfg.NumVars = 5
	for trial := 0; trial < 200; trial++ {
		f := Random(rng, cfg)
		g := ExpandAtLeast(f)
		if hasAtLeast(g) {
			t.Fatalf("ExpandAtLeast(%v) still contains AtLeast nodes", f)
		}
		assertEquivalent(t, f, g)
	}
}

func hasAtLeast(e Expr) bool {
	switch x := e.(type) {
	case Var, Const:
		return false
	case Not:
		return hasAtLeast(x.X)
	case And:
		return anyAtLeast(x.Xs)
	case Or:
		return anyAtLeast(x.Xs)
	case AtLeast:
		return true
	}
	return false
}

func anyAtLeast(xs []Expr) bool {
	for _, x := range xs {
		if hasAtLeast(x) {
			return true
		}
	}
	return false
}

func TestExpandAtLeastDegenerate(t *testing.T) {
	if got := ExpandAtLeast(NewAtLeast(0, V("a"))); !Equal(got, True) {
		t.Errorf("expand atleast(0) = %v, want true", got)
	}
	if got := ExpandAtLeast(NewAtLeast(2, V("a"))); !Equal(got, False) {
		t.Errorf("expand atleast(2 of 1) = %v, want false", got)
	}
}

func TestIsMonotone(t *testing.T) {
	tests := []struct {
		name string
		give Expr
		want bool
	}{
		{"fps", fpsFormula(), true},
		{"negation", Not{X: V("a")}, false},
		{"nested negation", NewAnd(V("a"), Not{X: V("b")}), false},
		{"voting", NewAtLeast(2, V("a"), V("b"), V("c")), true},
		{"const", True, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := IsMonotone(tt.give); got != tt.want {
				t.Errorf("IsMonotone = %v, want %v", got, tt.want)
			}
		})
	}
}

// assertEquivalent checks logical equivalence of a and b by exhaustive
// enumeration over their combined variables.
func assertEquivalent(t *testing.T, a, b Expr) {
	t.Helper()
	seen := make(map[string]struct{})
	for _, v := range append(Vars(a), Vars(b)...) {
		seen[v] = struct{}{}
	}
	vars := make([]string, 0, len(seen))
	for v := range seen {
		vars = append(vars, v)
	}
	AllAssignments(vars, func(assign map[string]bool) bool {
		if a.Eval(assign) != b.Eval(assign) {
			t.Fatalf("expressions differ under %v:\n  a = %v\n  b = %v", assign, a, b)
		}
		return true
	})
}
