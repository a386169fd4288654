package boolexpr

import "fmt"

// Dual implements the paper's Step-1 structural transformation: AND gates
// become OR gates and vice versa while variables stay in positive form.
//
// If f is the fault-tree function over variables x, then Dual(f) is the
// formula the paper calls Y(t) over renamed variables y (with y_i = ¬x_i):
// evaluating Dual(f) under assignment y equals evaluating f under the
// complemented assignment x = ¬y. AtLeast(k, n) dualises to
// AtLeast(n-k+1, n), and negations stay in place (their operand is
// dualised). Constants are complemented so that the duality
// Dual(f)(y) = ¬f(¬y) holds for every expression.
func Dual(e Expr) Expr {
	switch x := e.(type) {
	case Var:
		return x
	case Not:
		return Not{X: Dual(x.X)}
	case And:
		return Or{Xs: dualAll(x.Xs)}
	case Or:
		return And{Xs: dualAll(x.Xs)}
	case AtLeast:
		return AtLeast{K: len(x.Xs) - x.K + 1, Xs: dualAll(x.Xs)}
	case Const:
		return Const{B: !x.B}
	}
	panic(fmt.Sprintf("boolexpr: unknown expression type %T", e))
}

func dualAll(xs []Expr) []Expr {
	out := make([]Expr, len(xs))
	for i, x := range xs {
		out[i] = Dual(x)
	}
	return out
}

// NNF rewrites e into negation normal form: negations appear only
// directly above variables, using De Morgan's laws. AtLeast nodes are
// preserved when positive; a negated AtLeast(k, xs) becomes
// AtLeast(n-k+1, ¬xs) over negated operands (at most k-1 true ⇔ at
// least n-k+1 false).
func NNF(e Expr) Expr {
	return nnf(e, false)
}

func nnf(e Expr, negate bool) Expr {
	switch x := e.(type) {
	case Var:
		if negate {
			return Not{X: x}
		}
		return x
	case Not:
		return nnf(x.X, !negate)
	case And:
		if negate {
			return Or{Xs: nnfAll(x.Xs, true)}
		}
		return And{Xs: nnfAll(x.Xs, false)}
	case Or:
		if negate {
			return And{Xs: nnfAll(x.Xs, true)}
		}
		return Or{Xs: nnfAll(x.Xs, false)}
	case AtLeast:
		if negate {
			return AtLeast{K: len(x.Xs) - x.K + 1, Xs: nnfAll(x.Xs, true)}
		}
		return AtLeast{K: x.K, Xs: nnfAll(x.Xs, false)}
	case Const:
		return Const{B: x.B != negate}
	}
	panic(fmt.Sprintf("boolexpr: unknown expression type %T", e))
}

func nnfAll(xs []Expr, negate bool) []Expr {
	out := make([]Expr, len(xs))
	for i, x := range xs {
		out[i] = nnf(x, negate)
	}
	return out
}

// Simplify performs cheap structural simplifications: constant folding,
// double-negation elimination, flattening of nested conjunctions and
// disjunctions, and collapsing of single-operand gates. It preserves
// logical equivalence.
func Simplify(e Expr) Expr {
	switch x := e.(type) {
	case Var:
		return x
	case Not:
		inner := Simplify(x.X)
		switch y := inner.(type) {
		case Const:
			return Const{B: !y.B}
		case Not:
			return y.X
		}
		return Not{X: inner}
	case And:
		var flat []Expr
		for _, c := range x.Xs {
			s := Simplify(c)
			switch y := s.(type) {
			case Const:
				if !y.B {
					return False
				}
				// true operand: drop.
			case And:
				flat = append(flat, y.Xs...)
			default:
				flat = append(flat, s)
			}
		}
		return collapse(flat, true)
	case Or:
		var flat []Expr
		for _, c := range x.Xs {
			s := Simplify(c)
			switch y := s.(type) {
			case Const:
				if y.B {
					return True
				}
			case Or:
				flat = append(flat, y.Xs...)
			default:
				flat = append(flat, s)
			}
		}
		return collapse(flat, false)
	case AtLeast:
		k := x.K
		xs := make([]Expr, 0, len(x.Xs))
		for _, c := range x.Xs {
			s := Simplify(c)
			if y, ok := s.(Const); ok {
				if y.B {
					k-- // a true operand lowers the threshold
				}
				continue // false operands never contribute
			}
			xs = append(xs, s)
		}
		switch {
		case k <= 0:
			return True
		case k > len(xs):
			return False
		case k == 1:
			return Simplify(Or{Xs: xs})
		case k == len(xs):
			return Simplify(And{Xs: xs})
		}
		return AtLeast{K: k, Xs: xs}
	case Const:
		return x
	}
	panic(fmt.Sprintf("boolexpr: unknown expression type %T", e))
}

func collapse(xs []Expr, isAnd bool) Expr {
	switch len(xs) {
	case 0:
		if isAnd {
			return True
		}
		return False
	case 1:
		return xs[0]
	}
	if isAnd {
		return And{Xs: xs}
	}
	return Or{Xs: xs}
}

// ExpandAtLeast rewrites every AtLeast node into pure And/Or form using
// the recursive Shannon-style decomposition
//
//	atleast(k, x1..xn) = (x1 & atleast(k-1, x2..xn)) | atleast(k, x2..xn)
//
// which keeps sharing-free expression growth polynomial for fixed k.
// Expressions without AtLeast nodes are returned unchanged (possibly
// rebuilt).
func ExpandAtLeast(e Expr) Expr {
	switch x := e.(type) {
	case Var, Const:
		return e
	case Not:
		return Not{X: ExpandAtLeast(x.X)}
	case And:
		return And{Xs: expandAll(x.Xs)}
	case Or:
		return Or{Xs: expandAll(x.Xs)}
	case AtLeast:
		xs := expandAll(x.Xs)
		return expandThreshold(x.K, xs)
	}
	panic(fmt.Sprintf("boolexpr: unknown expression type %T", e))
}

func expandAll(xs []Expr) []Expr {
	out := make([]Expr, len(xs))
	for i, x := range xs {
		out[i] = ExpandAtLeast(x)
	}
	return out
}

func expandThreshold(k int, xs []Expr) Expr {
	switch {
	case k <= 0:
		return True
	case k > len(xs):
		return False
	case k == len(xs):
		return And{Xs: xs}
	case k == 1:
		return Or{Xs: xs}
	}
	head, tail := xs[0], xs[1:]
	with := And{Xs: []Expr{head, expandThreshold(k-1, tail)}}
	without := expandThreshold(k, tail)
	return Or{Xs: []Expr{with, without}}
}

// IsMonotone reports whether e is free of negations and constants after
// simplification, i.e. a coherent structure function. Fault trees produce
// monotone expressions; several algorithms (MOCUS, the Rauzy BDD cut-set
// construction) require this property.
func IsMonotone(e Expr) bool {
	switch x := e.(type) {
	case Var:
		return true
	case Not:
		return false
	case And:
		return allMonotone(x.Xs)
	case Or:
		return allMonotone(x.Xs)
	case AtLeast:
		return allMonotone(x.Xs)
	case Const:
		return true
	}
	return false
}

func allMonotone(xs []Expr) bool {
	for _, x := range xs {
		if !IsMonotone(x) {
			return false
		}
	}
	return true
}
