package core

import (
	"context"
	"fmt"
	"math"

	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/mcs"
)

// VerifySolution independently checks a Solution document against the
// tree it claims to analyse: the reported set must be a minimal cut
// set, its probability must be the product of the members'
// probabilities, and the log-cost must match. It is the check a
// downstream consumer (or an auditor of the tool's JSON output) runs
// before acting on a solution.
func VerifySolution(tree *ft.Tree, sol *Solution) error {
	if sol == nil {
		return fmt.Errorf("core: nil solution")
	}
	ids := sol.CutSetIDs()
	minimal, err := mcs.IsMinimalCutSet(tree, ids)
	if err != nil {
		return fmt.Errorf("core: verify cut set: %w", err)
	}
	if !minimal {
		return fmt.Errorf("core: reported set %v is not a minimal cut set", ids)
	}
	product := 1.0
	for _, e := range sol.MPMCS {
		actual := tree.Event(e.ID)
		if actual == nil {
			return fmt.Errorf("core: solution references unknown event %q", e.ID)
		}
		if math.Abs(actual.Prob-e.Prob) > 1e-12 {
			return fmt.Errorf("core: event %q probability drifted: solution %v, tree %v", e.ID, e.Prob, actual.Prob)
		}
		product *= actual.Prob
	}
	if math.Abs(product-sol.Probability) > 1e-9*math.Max(product, 1e-300) {
		return fmt.Errorf("core: probability %v does not match member product %v", sol.Probability, product)
	}
	if logFromProb := math.Exp(-sol.LogCost); math.Abs(logFromProb-sol.Probability) > 1e-9*math.Max(sol.Probability, 1e-300) {
		return fmt.Errorf("core: exp(−logCost) %v does not match probability %v", logFromProb, sol.Probability)
	}
	return nil
}

// AnalyzeDisjoint enumerates up to k minimal cut sets that share no
// events, in descending probability order: the "independent failure
// modes" view used for repair planning — fixing all events of one set
// leaves the remaining reported modes intact. After each solution,
// every member event is excluded outright (hard yᵢ), so later sets are
// event-disjoint from all earlier ones. Enumeration stops early when no
// cut set avoiding all previous events exists.
func AnalyzeDisjoint(ctx context.Context, tree *ft.Tree, k int, opts Options) ([]*Solution, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	out, _, err := enumerate(ctx, tree, ranking{span: "analyze-disjoint", k: k, disjoint: true}, opts)
	return out, err
}
