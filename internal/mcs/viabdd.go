package mcs

import (
	"mpmcs4fta/internal/bdd"
	"mpmcs4fta/internal/boolexpr"
	"mpmcs4fta/internal/ft"
)

// ViaBDD computes all minimal cut sets through the BDD engine (Rauzy's
// algorithm): polynomial in the BDD size rather than in the number of
// products, so it scales far beyond MOCUS. The output order matches
// MOCUS (lexicographic).
func ViaBDD(t *ft.Tree) ([]CutSet, error) {
	f, err := t.Formula()
	if err != nil {
		return nil, err
	}
	return minimalSets(t, f)
}

// CountViaBDD returns the number of minimal cut sets without
// enumerating them — usable even when the family is astronomically
// large.
func CountViaBDD(t *ft.Tree) (int64, error) {
	f, err := t.Formula()
	if err != nil {
		return 0, err
	}
	m, family, err := minimalFamily(t, f)
	if err != nil {
		return 0, err
	}
	return m.ZCount(family), nil
}

// minimalFamily compiles f over the tree's depth-first event order and
// returns the ZDD of its minimal cut sets.
func minimalFamily(t *ft.Tree, f boolexpr.Expr) (*bdd.Manager, bdd.ZRef, error) {
	m, ref, err := bdd.Compile(t.DFSEventOrder(), f)
	if err != nil {
		return nil, bdd.ZEmpty, err
	}
	family, err := m.MinimalCutSets(ref)
	if err != nil {
		return nil, bdd.ZEmpty, err
	}
	return m, family, nil
}

// minimalSets lists f's minimal cut sets in MOCUS order.
func minimalSets(t *ft.Tree, f boolexpr.Expr) ([]CutSet, error) {
	m, family, err := minimalFamily(t, f)
	if err != nil {
		return nil, err
	}
	sets := m.ZSets(family)
	out := make([]CutSet, len(sets))
	for i, set := range sets {
		out[i] = CutSet(set)
	}
	SortSets(out)
	return out, nil
}
