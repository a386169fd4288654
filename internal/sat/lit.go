// Package sat implements a conflict-driven clause-learning (CDCL) SAT
// solver in the MiniSat lineage: two-watched-literal propagation over an
// arena-backed clause database (one flat []lit of headers and literals,
// addressed by clauseRef indices, compacted by a garbage collector at
// clause-deletion points), VSIDS branching with phase saving, first-UIP
// clause learning with recursive (implication-graph-deep) minimisation
// and on-the-fly binary self-subsumption, Luby restarts, LBD-guided
// learnt-clause deletion, and incremental solving under assumptions with
// unsatisfiable-core extraction.
//
// Beyond plain SAT, the solver supports one linear pseudo-Boolean budget
// constraint (Σ wᵢ·[ℓᵢ true] ≤ bound) enforced by a dedicated propagator
// that produces ordinary reason clauses, so learning and core extraction
// work through it unchanged. The budget is what lets the LinearSU MaxSAT
// engine (internal/maxsat) perform model-improving search without
// encoding large pseudo-Boolean constraints into clauses.
//
// A small DPLL solver (Dpll) is also provided; it serves as a test
// oracle for the CDCL implementation.
package sat

import "mpmcs4fta/internal/cnf"

// lit is the internal literal representation: variable v (0-based) in
// positive polarity is 2v, negative is 2v+1.
type lit uint32

const litUndef lit = ^lit(0)

func mkLit(v int, neg bool) lit {
	l := lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

func (l lit) variable() int { return int(l >> 1) }
func (l lit) sign() bool    { return l&1 == 1 } // true when negated
func (l lit) neg() lit      { return l ^ 1 }

// fromDimacs converts a cnf.Lit (±v, 1-based) to the internal form.
func fromDimacs(l cnf.Lit) lit {
	if l < 0 {
		return mkLit(int(-l)-1, true)
	}
	return mkLit(int(l)-1, false)
}

// toDimacs converts an internal literal back to cnf.Lit form.
func toDimacs(l lit) cnf.Lit {
	v := cnf.Lit(l.variable() + 1)
	if l.sign() {
		return -v
	}
	return v
}

// lbool is a three-valued assignment.
type lbool int8

const (
	lUndef lbool = 0
	lTrue  lbool = 1
	lFalse lbool = -1
)
