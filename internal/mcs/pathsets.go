package mcs

import (
	"fmt"

	"mpmcs4fta/internal/boolexpr"
	"mpmcs4fta/internal/ft"
)

// PathSetsViaBDD computes all minimal path sets: minimal sets of basic
// events whose simultaneous *functioning* guarantees the top event
// cannot occur. They are the minimal cut sets of the success tree (the
// paper's Step-1 dual), and the qualitative complement of the cut-set
// view: cut sets say how the system fails, path sets say what keeps it
// alive.
func PathSetsViaBDD(t *ft.Tree) ([]CutSet, error) {
	f, err := t.Formula()
	if err != nil {
		return nil, err
	}
	return minimalSets(t, boolexpr.Dual(f))
}

// IsPathSet reports whether keeping exactly the given events functional
// prevents the top event regardless of every other event failing.
func IsPathSet(t *ft.Tree, set []string) (bool, error) {
	if err := t.Validate(); err != nil {
		return false, err
	}
	working := make(map[string]bool, len(set))
	for _, id := range set {
		if t.Event(id) == nil {
			return false, fmt.Errorf("mcs: %q is not a basic event", id)
		}
		working[id] = true
	}
	// Fail everything outside the set.
	failed := make(map[string]bool, t.NumEvents())
	for _, e := range t.Events() {
		failed[e.ID] = !working[e.ID]
	}
	top, err := t.Eval(failed)
	if err != nil {
		return false, err
	}
	return !top, nil
}
