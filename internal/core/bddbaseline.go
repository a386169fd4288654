package core

import (
	"fmt"
	"time"

	"mpmcs4fta/internal/bdd"
	"mpmcs4fta/internal/fp"
	"mpmcs4fta/internal/ft"
)

// AnalyzeBDD computes the MPMCS with the BDD engine instead of MaxSAT:
// build the structure function's ROBDD, extract the minimal-cut-set
// family (Rauzy), and pick the maximum-probability member by dynamic
// programming. This is the comparison baseline the paper names as
// future work (Experiment E6 in DESIGN.md); it returns the same
// Solution document with Method/Solver identifying the engine.
//
// Variables are ordered by depth-first traversal from the top event —
// the standard fault-tree ordering heuristic: it keeps the events of
// one subsystem adjacent, which the declared insertion order destroys
// on generated workloads. No field of opts applies to the BDD engine;
// it is taken for symmetry with Analyze.
func AnalyzeBDD(tree *ft.Tree, opts Options) (*Solution, error) {
	start := time.Now()
	m, cuts, err := bddCutSets(tree)
	if err != nil {
		return nil, err
	}
	set, prob := m.ZBestSet(cuts, tree.Probabilities())
	if prob <= 0 {
		return nil, ErrZeroProbability
	}
	return bddSolution(tree, m, LogWeights(tree.Events(), DefaultScale), bdd.RankedSet{Set: set, Prob: prob}, millisSince(start))
}

// AnalyzeTopKBDD returns up to k minimal cut sets ranked by descending
// probability, computed entirely on the BDD side: Rauzy cut-set family
// plus exact best-first enumeration (bdd.ZTopSets). It is the
// counterpart of AnalyzeTopK for cross-checking the MaxSAT
// blocking-clause loop.
func AnalyzeTopKBDD(tree *ft.Tree, k int, opts Options) ([]*Solution, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	start := time.Now()
	m, cuts, err := bddCutSets(tree)
	if err != nil {
		return nil, err
	}
	ranked := m.ZTopSets(cuts, tree.Probabilities(), k)
	elapsed := millisSince(start)

	weights := LogWeights(tree.Events(), DefaultScale)
	out := make([]*Solution, 0, len(ranked))
	for _, r := range ranked {
		solution, err := bddSolution(tree, m, weights, r, elapsed)
		if err != nil {
			return nil, err
		}
		out = append(out, solution)
	}
	return out, nil
}

// bddCutSets builds the ROBDD of the tree's structure function over the
// depth-first event order and extracts its minimal-cut-set family.
func bddCutSets(tree *ft.Tree) (*bdd.Manager, bdd.ZRef, error) {
	f, err := tree.Formula()
	if err != nil {
		return nil, bdd.ZEmpty, err
	}
	m, ref, err := bdd.Compile(tree.DFSEventOrder(), f)
	if err != nil {
		return nil, bdd.ZEmpty, err
	}
	cuts, err := m.MinimalCutSets(ref)
	if err != nil {
		return nil, bdd.ZEmpty, err
	}
	if cuts == bdd.ZEmpty {
		return nil, bdd.ZEmpty, ErrNoCutSet
	}
	return m, cuts, nil
}

// bddSolution is the solution document of one BDD-ranked cut set. It
// reports the BDD's own probability rather than the Step-6 product:
// the differential harness uses it as the independent oracle.
func bddSolution(tree *ft.Tree, m *bdd.Manager, weights []EventWeight, r bdd.RankedSet, elapsedMS float64) (*Solution, error) {
	solution, err := newSolution(tree, weights, r.Set, "BDD (Rauzy minimal cut sets)")
	if err != nil {
		return nil, err
	}
	solution.Probability = r.Prob
	solution.Solver = "bdd"
	solution.ElapsedMS = elapsedMS
	solution.Stats.Vars = m.NumNodes()
	return solution, nil
}

// mpmcsEqualProb reports whether two solutions agree on the MPMCS
// probability within floating-point tolerance — used by tests and the
// benchmark harness to cross-check MaxSAT against the BDD baseline
// (ties between distinct cut sets of equal probability are legitimate).
func mpmcsEqualProb(a, b *Solution) bool {
	if a == nil || b == nil {
		return a == b
	}
	return fp.Eq(a.Probability, b.Probability)
}
