package quant

import (
	"mpmcs4fta/internal/decomp"
	"mpmcs4fta/internal/ft"
)

// ModularProbability computes the exact top-event probability by
// modular decomposition (Dutuit & Rauzy): every module gate is analysed
// in isolation with a BDD over its own events, then replaced by a
// pseudo-event carrying its probability. Sharing *inside* a module is
// handled exactly by that module's BDD; sharing *across* module
// boundaries stays in the quotient tree, which is itself analysed with
// a BDD. The per-module BDDs are far smaller than one monolithic BDD,
// extending exact analysis to trees where TopEventProbability exhausts
// its node budget — at equal results wherever both complete.
//
// The quotient trees come from decomp.BuildPlan with every module its
// own plan node.
func ModularProbability(t *ft.Tree) (float64, error) {
	plan, err := decomp.BuildPlan(t, decomp.Options{MinEvents: 1})
	if err != nil {
		return 0, err
	}
	prob := make(map[string]float64, len(plan.Order))
	for _, id := range plan.Order { // children before parents
		node := plan.Nodes[id]
		for _, c := range node.Children {
			if err := node.Tree.SetProb(c, prob[c]); err != nil {
				return 0, err
			}
		}
		if prob[id], err = TopEventProbability(node.Tree); err != nil {
			return 0, err
		}
	}
	return prob[plan.Root], nil
}
