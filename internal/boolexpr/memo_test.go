package boolexpr

import (
	"fmt"
	"testing"
	"time"
)

// ladder returns g_0 of g_i = Or(g_{i+1}, h_i), h_i = And(g_{i+1}, e_i)
// and g_levels = e_levels: each g_{i+1} is one value under two parents,
// so g_0 is reached from e_levels along 2^levels paths.
func ladder(levels int) Expr {
	var g Expr = V(fmt.Sprintf("e%d", levels))
	for i := levels - 1; i >= 0; i-- {
		h := And{Xs: []Expr{g, V(fmt.Sprintf("e%d", i))}}
		g = Or{Xs: []Expr{g, h}}
	}
	return g
}

func TestWalksOnSharedLadder(t *testing.T) {
	// Small enough to check by evaluating once per path.
	small := ladder(10)
	assertEquivalent(t, Simplify(small), small)
	assertEquivalent(t, Simplify(Not{X: Dual(small)}), Not{X: Dual(small)})
	if !Equal(Dual(Dual(small)), small) {
		t.Error("Dual(Dual(f)) != f on a shared ladder")
	}

	// 2^200 paths: done only if every walk visits a shared gate once.
	done := make(chan Expr, 1)
	go func() { done <- Simplify(Not{X: Dual(ladder(200))}) }()
	select {
	case got := <-done:
		if _, ok := got.(Not); !ok {
			t.Errorf("Simplify(¬Dual(ladder)) = %T, want a negation", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Dual and Simplify on a 200-level ladder took over 10s")
	}
}

// Two different gates over one operand slice (ExpandAtLeast builds such
// pairs from a shared tail) are cached apart: neither gets the other's
// result.
func TestMemoKeepsGatesOnOneSliceApart(t *testing.T) {
	xs := []Expr{V("a"), V("b")}
	and, or := And{Xs: xs}, Or{Xs: xs}
	e := Or{Xs: []Expr{and, or, And{Xs: []Expr{and, or}}, and}}
	m := NewMemo[Expr](e)
	if m == nil {
		t.Fatal("no gate counted as reached twice")
	}
	if !m.Shared(and) || !m.Shared(or) {
		t.Error("a gate reached twice is not cached")
	}
	want := Or{Xs: []Expr{and, V("a"), V("b"), And{Xs: []Expr{V("a"), V("b"), or}}, and}}
	if got := Simplify(e); !Equal(got, want) {
		t.Errorf("Simplify = %v, want %v", got, want)
	}
	assertEquivalent(t, Simplify(e), e)
	assertEquivalent(t, Dual(e), Dual(Simplify(e)))
}
