package boolexpr

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genExpr wraps a random expression plus an assignment over its
// variables so properties can be checked pointwise. It implements
// quick.Generator.
type genExpr struct {
	Expr   Expr
	Assign map[string]bool
}

// Generate implements quick.Generator.
func (genExpr) Generate(r *rand.Rand, _ int) reflect.Value {
	cfg := DefaultRandomConfig()
	cfg.NumVars = 6
	cfg.MaxDepth = 5
	cfg.AllowConst = true
	e := Random(r, cfg)
	assign := make(map[string]bool)
	for _, v := range Vars(e) {
		assign[v] = r.Intn(2) == 0
	}
	return reflect.ValueOf(genExpr{Expr: e, Assign: assign})
}

func quickConfig() *quick.Config {
	return &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(101))}
}

// TestQuickDualInvolution: Dual is an involution.
func TestQuickDualInvolution(t *testing.T) {
	property := func(g genExpr) bool {
		return Equal(Dual(Dual(g.Expr)), g.Expr)
	}
	if err := quick.Check(property, quickConfig()); err != nil {
		t.Error(err)
	}
}

// TestQuickDualPointwise: Dual(f)(y) = ¬f(¬y) at a random point.
func TestQuickDualPointwise(t *testing.T) {
	property := func(g genExpr) bool {
		comp := make(map[string]bool, len(g.Assign))
		for v, b := range g.Assign {
			comp[v] = !b
		}
		return Dual(g.Expr).Eval(g.Assign) == !g.Expr.Eval(comp)
	}
	if err := quick.Check(property, quickConfig()); err != nil {
		t.Error(err)
	}
}

// TestQuickSimplifyPointwise: Simplify preserves the function.
func TestQuickSimplifyPointwise(t *testing.T) {
	property := func(g genExpr) bool {
		return Simplify(g.Expr).Eval(g.Assign) == g.Expr.Eval(g.Assign)
	}
	if err := quick.Check(property, quickConfig()); err != nil {
		t.Error(err)
	}
}

// TestQuickExpandAtLeastPointwise: threshold expansion preserves the
// function and eliminates AtLeast nodes.
func TestQuickExpandAtLeastPointwise(t *testing.T) {
	property := func(g genExpr) bool {
		expanded := ExpandAtLeast(g.Expr)
		if hasAtLeast(expanded) {
			return false
		}
		return expanded.Eval(g.Assign) == g.Expr.Eval(g.Assign)
	}
	if err := quick.Check(property, quickConfig()); err != nil {
		t.Error(err)
	}
}

// TestQuickSimplifyIdempotent: Simplify(Simplify(e)) = Simplify(e)
// structurally.
func TestQuickSimplifyIdempotent(t *testing.T) {
	property := func(g genExpr) bool {
		once := Simplify(g.Expr)
		return Equal(Simplify(once), once)
	}
	if err := quick.Check(property, quickConfig()); err != nil {
		t.Error(err)
	}
}

// TestQuickSizeDepthPositive: structural metrics are sane.
func TestQuickSizeDepthPositive(t *testing.T) {
	property := func(g genExpr) bool {
		return Size(g.Expr) >= 1 && Depth(g.Expr) >= 1 && Depth(g.Expr) <= Size(g.Expr)
	}
	if err := quick.Check(property, quickConfig()); err != nil {
		t.Error(err)
	}
}

// TestQuickMonotoneUpwardClosed: for monotone expressions, turning any
// variable on never flips the function from true to false.
func TestQuickMonotoneUpwardClosed(t *testing.T) {
	property := func(g genExpr) bool {
		mono := stripNegations(g.Expr)
		if !mono.Eval(g.Assign) {
			return true // only test the upward direction from true points
		}
		for v := range g.Assign {
			if g.Assign[v] {
				continue
			}
			g.Assign[v] = true
			up := mono.Eval(g.Assign)
			g.Assign[v] = false
			if !up {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, quickConfig()); err != nil {
		t.Error(err)
	}
}

// stripNegations rewrites Not(x) to x, producing a monotone expression.
func stripNegations(e Expr) Expr {
	switch x := e.(type) {
	case Var, Const:
		return e
	case Not:
		return stripNegations(x.X)
	case And:
		return And{Xs: stripAll(x.Xs)}
	case Or:
		return Or{Xs: stripAll(x.Xs)}
	case AtLeast:
		return AtLeast{K: x.K, Xs: stripAll(x.Xs)}
	}
	return e
}

func stripAll(xs []Expr) []Expr {
	out := make([]Expr, len(xs))
	for i, x := range xs {
		out[i] = stripNegations(x)
	}
	return out
}
