// Package quant provides quantitative fault-tree analysis on top of the
// BDD engine: exact top-event probability, the classical cut-set
// approximations, and per-event importance measures. These are the
// "body of measures used in FTA" that the paper's MPMCS is intended to
// extend.
package quant

import (
	"fmt"
	"math"
	"sort"

	"mpmcs4fta/internal/bdd"
	"mpmcs4fta/internal/fp"
	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/mcs"
)

// TopEventProbability computes the exact probability of the top event
// assuming independent basic events, by Shannon expansion over the
// tree's BDD.
func TopEventProbability(t *ft.Tree) (float64, error) {
	m, f, err := buildBDD(t)
	if err != nil {
		return 0, err
	}
	return m.Probability(f, t.Probabilities()), nil
}

// RareEventApprox returns the rare-event approximation Σᵢ P(MCSᵢ): an
// upper bound that is tight when probabilities are small.
func RareEventApprox(sets []mcs.CutSet, probs map[string]float64) float64 {
	total := 0.0
	for _, set := range sets {
		total += set.Probability(probs)
	}
	return total
}

// MinCutUpperBound returns the min-cut upper bound
// 1 − ∏ᵢ (1 − P(MCSᵢ)), which always dominates the exact probability
// and improves on the rare-event approximation.
func MinCutUpperBound(sets []mcs.CutSet, probs map[string]float64) float64 {
	sum := 0.0
	for _, set := range sets {
		p := set.Probability(probs)
		if p >= 1 {
			return 1
		}
		sum += math.Log1p(-p)
	}
	return -math.Expm1(sum)
}

// Importance bundles the classical importance measures for one event.
type Importance struct {
	Event string
	// Birnbaum is ∂P(top)/∂p(e) = P(top|e=1) − P(top|e=0).
	Birnbaum float64
	// Criticality is the Fussell-Vesely measure 1 − P(top|e=0)/P(top):
	// the fraction of top-event probability involving e.
	Criticality float64
	// RAW (risk achievement worth) is P(top|e=1)/P(top).
	RAW float64
	// RRW (risk reduction worth) is P(top)/P(top|e=0).
	RRW float64
}

// Measures computes all importance measures for every basic event,
// sorted by descending Birnbaum importance (ties broken by id). The
// ratio measures are reported as +Inf where their denominator is zero
// and the numerator is not.
func Measures(t *ft.Tree) ([]Importance, error) {
	m, f, err := buildBDD(t)
	if err != nil {
		return nil, err
	}
	probs := t.Probabilities()
	base := m.Probability(f, probs)

	events := t.Events()
	out := make([]Importance, 0, len(events))
	for _, e := range events {
		with, err := m.Restrict(f, e.ID, true)
		if err != nil {
			return nil, err
		}
		without, err := m.Restrict(f, e.ID, false)
		if err != nil {
			return nil, err
		}
		pWith := m.Probability(with, probs)
		pWithout := m.Probability(without, probs)
		imp := Importance{
			Event:       e.ID,
			Birnbaum:    pWith - pWithout,
			Criticality: safeFrac(base-pWithout, base),
			RAW:         safeFrac(pWith, base),
			RRW:         safeFrac(base, pWithout),
		}
		out = append(out, imp)
	}
	sort.Slice(out, func(i, j int) bool {
		//lint:ignore floatcmp exact comparison keeps the ordering a strict weak order; epsilon ties would make sort.Slice non-deterministic
		if out[i].Birnbaum != out[j].Birnbaum {
			return out[i].Birnbaum > out[j].Birnbaum
		}
		return out[i].Event < out[j].Event
	})
	return out, nil
}

func safeFrac(num, den float64) float64 {
	switch {
	case !fp.Zero(den):
		return num / den
	case fp.Zero(num):
		return 0
	case num > 0:
		return math.Inf(1)
	default:
		return math.Inf(-1)
	}
}

func buildBDD(t *ft.Tree) (*bdd.Manager, bdd.Ref, error) {
	f, err := t.Formula()
	if err != nil {
		return nil, bdd.False, err
	}
	m, ref, err := bdd.Compile(t.DFSEventOrder(), f)
	if err != nil {
		return nil, bdd.False, fmt.Errorf("quant: build BDD: %w", err)
	}
	return m, ref, nil
}
