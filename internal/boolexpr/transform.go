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
	return dual(e, NewMemo[Expr](e))
}

func dual(e Expr, m *Memo[Expr]) Expr {
	d, ok, slot := m.Get(e)
	if ok {
		return d
	}
	switch x := e.(type) {
	case Var:
		return x
	case Not:
		return Not{X: dual(x.X, m)}
	case And:
		d = Or{Xs: dualAll(x.Xs, m)}
	case Or:
		d = And{Xs: dualAll(x.Xs, m)}
	case AtLeast:
		d = AtLeast{K: len(x.Xs) - x.K + 1, Xs: dualAll(x.Xs, m)}
	case Const:
		return Const{B: !x.B}
	default:
		panic(fmt.Sprintf("boolexpr: unknown expression type %T", e))
	}
	m.Put(slot, d)
	return d
}

func dualAll(xs []Expr, m *Memo[Expr]) []Expr {
	out := make([]Expr, len(xs))
	for i, x := range xs {
		out[i] = dual(x, m)
	}
	return out
}

// Simplify performs cheap structural simplifications: constant folding,
// double-negation elimination, flattening of nested conjunctions and
// disjunctions, and collapsing of single-operand gates. It preserves
// logical equivalence.
func Simplify(e Expr) Expr {
	return simplify(e, NewMemo[Expr](e))
}

func simplify(e Expr, m *Memo[Expr]) Expr {
	s, ok, slot := m.Get(e)
	if ok {
		return s
	}
	switch x := e.(type) {
	case Var:
		return x
	case Not:
		inner := simplify(x.X, m)
		switch y := inner.(type) {
		case Const:
			return Const{B: !y.B}
		case Not:
			return y.X
		}
		return Not{X: inner}
	case And:
		s = simplifyJunction(x.Xs, true, m)
	case Or:
		s = simplifyJunction(x.Xs, false, m)
	case AtLeast:
		k := x.K
		xs := make([]Expr, 0, len(x.Xs))
		for _, c := range x.Xs {
			sc := simplify(c, m)
			if y, ok := sc.(Const); ok {
				if y.B {
					k-- // a true operand lowers the threshold
				}
				continue // false operands never contribute
			}
			xs = append(xs, sc)
		}
		switch {
		case k <= 0:
			s = True
		case k > len(xs):
			s = False
		case k == 1, k == len(xs):
			isAnd := k == len(xs)
			var flat []Expr
			for _, c := range xs {
				flat = appendFlat(flat, c, isAnd)
			}
			s = collapse(flat, isAnd)
		default:
			s = AtLeast{K: k, Xs: xs}
		}
	case Const:
		return x
	default:
		panic(fmt.Sprintf("boolexpr: unknown expression type %T", e))
	}
	m.Put(slot, s)
	return s
}

// simplifyJunction simplifies a conjunction (isAnd) or disjunction of
// xs: a dominating constant decides it, neutral constants drop out and
// nested gates of the same kind are flattened.
func simplifyJunction(xs []Expr, isAnd bool, m *Memo[Expr]) Expr {
	flat, decided := appendJunction(make([]Expr, 0, len(xs)), xs, isAnd, m)
	if decided {
		return Const{B: !isAnd} // false in a conjunction, true in a disjunction
	}
	return collapse(flat, isAnd)
}

// appendJunction appends the simplified operands xs of a junction to
// flat; decided reports a dominating constant among them. An operand
// that is an unshared gate of the same kind is spliced in operand by
// operand rather than simplified into a list of its own and copied: on
// a deep chain of same-kind gates that copying is quadratic.
func appendJunction(flat, xs []Expr, isAnd bool, m *Memo[Expr]) (_ []Expr, decided bool) {
	for _, c := range xs {
		if inner, ok := junctionOperands(c, isAnd); ok && !m.Shared(c) {
			if flat, decided = appendJunction(flat, inner, isAnd, m); decided {
				return flat, true
			}
			continue
		}
		s := simplify(c, m)
		if y, ok := s.(Const); ok {
			if y.B != isAnd {
				return flat, true
			}
			continue
		}
		flat = appendFlat(flat, s, isAnd)
	}
	return flat, false
}

// junctionOperands returns e's operands if e is a conjunction (isAnd)
// or disjunction.
func junctionOperands(e Expr, isAnd bool) ([]Expr, bool) {
	switch x := e.(type) {
	case And:
		return x.Xs, isAnd
	case Or:
		return x.Xs, !isAnd
	}
	return nil, false
}

// appendFlat appends a simplified operand to a conjunction (isAnd) or
// disjunction, splicing in the operands of a nested gate of the same
// kind.
func appendFlat(flat []Expr, s Expr, isAnd bool) []Expr {
	switch y := s.(type) {
	case And:
		if isAnd {
			return append(flat, y.Xs...)
		}
	case Or:
		if !isAnd {
			return append(flat, y.Xs...)
		}
	}
	return append(flat, s)
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
