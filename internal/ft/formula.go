package ft

import (
	"fmt"

	"mpmcs4fta/internal/boolexpr"
)

// Formula compiles the tree into its structure function f(t): a Boolean
// expression over the basic-event ids that is true exactly when the top
// event occurs. A gate with several parents is one shared expression
// value; the walks over the expression (boolexpr.Dual and Simplify, the
// Tseitin encoder in internal/cnf, the BDD compiler) visit it once.
func (t *Tree) Formula() (boolexpr.Expr, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	memo := make(map[string]boolexpr.Expr, len(t.gates))
	return t.nodeFormula(t.top, memo), nil
}

func (t *Tree) nodeFormula(id string, memo map[string]boolexpr.Expr) boolexpr.Expr {
	if _, ok := t.events[id]; ok {
		return boolexpr.V(id)
	}
	if e, ok := memo[id]; ok {
		return e
	}
	g := t.gates[id]
	xs := make([]boolexpr.Expr, len(g.Inputs))
	for i, in := range g.Inputs {
		xs[i] = t.nodeFormula(in, memo)
	}
	var e boolexpr.Expr
	switch g.Type {
	case GateAnd:
		e = boolexpr.And{Xs: xs}
	case GateOr:
		e = boolexpr.Or{Xs: xs}
	case GateVoting:
		e = boolexpr.AtLeast{K: g.K, Xs: xs}
	default:
		panic(fmt.Sprintf("ft: gate %q has invalid type %d", id, int(g.Type)))
	}
	memo[id] = e
	return e
}
