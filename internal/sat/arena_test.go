package sat

import (
	"context"
	"math/rand"
	"testing"

	"mpmcs4fta/internal/cnf"
)

func TestArenaAllocAccessors(t *testing.T) {
	var a clauseArena
	r1 := a.alloc([]lit{mkLit(0, false), mkLit(1, true), mkLit(2, false)}, 0)
	r2 := a.alloc([]lit{mkLit(3, false), mkLit(4, false)}, flagLearnt)

	if a.size(r1) != 3 || a.size(r2) != 2 {
		t.Fatalf("sizes = %d, %d", a.size(r1), a.size(r2))
	}
	if a.learnt(r1) || !a.learnt(r2) {
		t.Fatalf("learnt flags = %v, %v", a.learnt(r1), a.learnt(r2))
	}
	if a.deleted(r1) || a.temp(r1) {
		t.Fatal("fresh clause carries deleted/temp flags")
	}
	want := []lit{mkLit(0, false), mkLit(1, true), mkLit(2, false)}
	for i, l := range a.lits(r1) {
		if l != want[i] {
			t.Fatalf("lits(r1)[%d] = %v, want %v", i, l, want[i])
		}
	}
	a.setLBD(r2, 7)
	a.setAct(r2, 2.5)
	if a.lbd(r2) != 7 || a.act(r2) != 2.5 {
		t.Fatalf("lbd/act roundtrip: %d, %v", a.lbd(r2), a.act(r2))
	}
	if a.wasted != 0 {
		t.Fatalf("wasted = %d before any deletion", a.wasted)
	}
	a.markDeleted(r1)
	if !a.deleted(r1) || a.wasted != hdrWords+3 {
		t.Fatalf("deleted=%v wasted=%d", a.deleted(r1), a.wasted)
	}
}

// release cuts a clause at the arena's end off (its words are reused by
// the next alloc) and marks any other clause deleted for the GC.
func TestArenaReleaseReusesTail(t *testing.T) {
	var a clauseArena
	r1 := a.alloc([]lit{mkLit(0, false), mkLit(1, false)}, flagTemp)
	r2 := a.alloc([]lit{mkLit(2, false), mkLit(3, false), mkLit(4, true)}, flagTemp)
	a.release(r1) // not at the tail
	if !a.deleted(r1) || a.wasted != hdrWords+2 {
		t.Fatalf("inner release: deleted=%v wasted=%d", a.deleted(r1), a.wasted)
	}
	a.release(r2) // the tail
	if a.words() != int(r2) || a.wasted != hdrWords+2 {
		t.Fatalf("tail release: words=%d (want %d) wasted=%d", a.words(), r2, a.wasted)
	}
	if r3 := a.alloc([]lit{mkLit(5, false)}, 0); r3 != r2 {
		t.Fatalf("next alloc at %d, want the freed tail %d", r3, r2)
	}
}

// checkArenaAccounting walks the arena clause by clause: the deleted
// words must be exactly the wasted count, and every live temp clause
// must still be some assigned variable's reason (a released budget
// reason that was neither cut off nor marked deleted would leak).
func checkArenaAccounting(t *testing.T, s *Solver) {
	t.Helper()
	reasons := make(map[clauseRef]bool)
	for v := 0; v < s.numVars; v++ {
		if s.reason[v] != refUndef {
			reasons[s.reason[v]] = true
		}
	}
	dead := 0
	for r := 0; r < s.ca.words(); r += hdrWords + s.ca.size(clauseRef(r)) {
		cr := clauseRef(r)
		switch {
		case s.ca.deleted(cr):
			dead += hdrWords + s.ca.size(cr)
		case s.ca.temp(cr) && !reasons[cr]:
			t.Fatalf("temp clause at %d is live but nobody's reason", r)
		}
	}
	if dead != s.ca.wasted {
		t.Fatalf("deleted words %d, wasted count %d", dead, s.ca.wasted)
	}
}

func TestArenaRelocForwarding(t *testing.T) {
	var a clauseArena
	dead := a.alloc([]lit{mkLit(0, false), mkLit(1, false)}, 0)
	live := a.alloc([]lit{mkLit(2, false), mkLit(3, true), mkLit(4, false)}, flagLearnt)
	a.setLBD(live, 3)
	a.markDeleted(dead)

	to := clauseArena{}
	ref1, ref2 := live, live
	a.reloc(&ref1, &to)
	a.reloc(&ref2, &to) // second reloc must follow the forwarding ref
	if ref1 != ref2 {
		t.Fatalf("two relocs of the same clause diverged: %d vs %d", ref1, ref2)
	}
	if to.size(ref1) != 3 || !to.learnt(ref1) || to.lbd(ref1) != 3 {
		t.Fatal("relocated clause lost header state")
	}
	if got, want := to.lits(ref1)[1], mkLit(3, true); got != want {
		t.Fatalf("relocated lits[1] = %v, want %v", got, want)
	}
	// Only the live clause moved: the new arena holds exactly one clause.
	if to.words() != hdrWords+3 {
		t.Fatalf("new arena words = %d, want %d (dead clause copied?)", to.words(), hdrWords+3)
	}
}

// checkSolverRefs verifies every clauseRef the solver holds is
// structurally sound after a GC: watch lists point at live clauses that
// really watch the literal, reasons of assigned variables resolve, and
// the clause DB lists contain no deleted refs.
func checkSolverRefs(t *testing.T, s *Solver) {
	t.Helper()
	for l := range s.watches {
		for _, w := range s.watches[l] {
			if s.ca.deleted(w.ref) {
				t.Fatalf("watch list %d holds a deleted clause", l)
			}
			cl := s.ca.lits(w.ref)
			if len(cl) < 2 {
				t.Fatalf("watched clause of size %d", len(cl))
			}
			if cl[0].neg() != lit(l) && cl[1].neg() != lit(l) {
				t.Fatalf("clause %v does not watch literal %d", cl, l)
			}
		}
	}
	for v := 0; v < s.numVars; v++ {
		if r := s.reason[v]; r != refUndef {
			if s.ca.deleted(r) {
				t.Fatalf("reason of var %d is a deleted clause", v)
			}
			if got := s.ca.lits(r)[0].variable(); got != v {
				t.Fatalf("reason clause of var %d asserts var %d", v, got)
			}
		}
	}
	for _, cr := range s.clauses {
		if s.ca.deleted(cr) || s.ca.size(cr) < 2 {
			t.Fatal("problem clause list holds deleted/short clause")
		}
	}
	for _, cr := range s.learnts {
		if s.ca.deleted(cr) || !s.ca.learnt(cr) {
			t.Fatal("learnt DB holds deleted or non-learnt clause")
		}
	}
}

// TestGCRemapsRefs drives a solve that learns clauses, then forces
// deletion and compaction and checks every ref was remapped.
func TestGCRemapsRefs(t *testing.T) {
	ctx := context.Background()
	s := New(30)
	pigeonhole(s, 6, 5)
	if status, err := s.Solve(ctx); err != nil || status != Unsat {
		t.Fatalf("php(6,5): %v, %v", status, err)
	}
	// Re-solve a satisfiable extension after compaction: delete every
	// other learnt clause, sweep, compact.
	s2 := New(25)
	pigeonhole(s2, 5, 5)
	if status, err := s2.Solve(ctx); err != nil || status != Sat {
		t.Fatalf("php(5,5): %v, %v", status, err)
	}
	kept := s2.learnts[:0]
	for i, cr := range s2.learnts {
		if i%2 == 0 && !s2.locked(cr) {
			s2.ca.markDeleted(cr)
		} else {
			kept = append(kept, cr)
		}
	}
	s2.learnts = kept
	s2.sweepWatches()
	before := s2.ca.words()
	wasted := s2.ca.wasted
	s2.garbageCollect()
	checkSolverRefs(t, s2)
	if s2.ca.wasted != 0 {
		t.Fatalf("wasted = %d after GC", s2.ca.wasted)
	}
	if wasted > 0 && s2.ca.words() != before-wasted {
		t.Fatalf("arena words %d, want %d - %d", s2.ca.words(), before, wasted)
	}
	if s2.stats.ClauseGCs != 1 {
		t.Fatalf("ClauseGCs = %d", s2.stats.ClauseGCs)
	}
	// The compacted solver must still answer correctly.
	if status, err := s2.Solve(ctx); err != nil || status != Sat {
		t.Fatalf("post-GC solve: %v, %v", status, err)
	}
	pigeonhole(s2, 6, 5) // extend to the unsat instance incrementally
	if status, err := s2.Solve(ctx); err != nil || status != Unsat {
		t.Fatalf("post-GC incremental solve: %v, %v", status, err)
	}
}

// TestGCDuringSearch shrinks the learnt-DB cap so reduceDB (and with it
// the compacting GC) fires organically mid-search; the solver must stay
// correct with refs moving under the live trail and watch lists.
func TestGCDuringSearch(t *testing.T) {
	ctx := context.Background()
	s := New(0)
	pigeonhole(s, 7, 6)
	s.maxLearnts = 20 // force frequent reduceDB + GC
	status, err := s.Solve(ctx)
	if err != nil || status != Unsat {
		t.Fatalf("php(7,6): %v, %v", status, err)
	}
	if s.stats.Deleted == 0 {
		t.Fatal("reduceDB never deleted a clause despite tiny cap")
	}
	if s.stats.ClauseGCs == 0 {
		t.Fatal("clause GC never ran despite heavy deletion")
	}
	checkSolverRefs(t, s)
}

// TestGCWithBudgetReasons runs the LinearSU-style incremental loop with
// a tiny learnt cap: budget reasons live in the arena as temp clauses
// and must survive (or be reclaimed by) compactions across Solve calls.
func TestGCWithBudgetReasons(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		numVars := 6 + rng.Intn(5)
		f := randomCNF(rng, numVars, 3*numVars, 3)
		lits := make([]cnf.Lit, numVars)
		weights := make([]int64, numVars)
		var total int64
		for v := 1; v <= numVars; v++ {
			lits[v-1] = cnf.Lit(v)
			weights[v-1] = int64(1 + rng.Intn(9))
			total += weights[v-1]
		}
		want := bruteForceMinCost(f, lits, weights)

		s := New(f.NumVars)
		s.AddFormula(f)
		if err := s.SetBudget(lits, weights, total); err != nil {
			t.Fatal(err)
		}
		s.maxLearnts = 10
		best := int64(-1)
		for {
			status, err := s.Solve(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if status != Sat {
				break
			}
			m := s.Model()
			var cost int64
			for i, l := range lits {
				if m[l.Var()] == l.Pos() {
					cost += weights[i]
				}
			}
			best = cost
			if cost == 0 {
				break
			}
			checkArenaAccounting(t, s)
			if err := s.SetBudgetBound(cost - 1); err != nil {
				t.Fatal(err)
			}
		}
		if best != want {
			t.Fatalf("trial %d: linear search under GC found %d, brute force %d", trial, best, want)
		}
		checkSolverRefs(t, s)
		checkArenaAccounting(t, s)
	}
}

// TestIncrementalSolveAcrossGC interleaves clause addition, solving and
// explicit compaction: refs handed out before a GC (problem clause DB,
// level-0 reasons) must stay valid for later Solve calls.
func TestIncrementalSolveAcrossGC(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 30; trial++ {
		numVars := 5 + rng.Intn(6)
		f := randomCNF(rng, numVars, 2*numVars, 3)
		s := New(f.NumVars)
		s.AddFormula(f)
		if _, err := s.Solve(ctx); err != nil {
			t.Fatal(err)
		}
		s.garbageCollect() // compact between incremental calls
		checkSolverRefs(t, s)

		g := randomCNF(rng, numVars, numVars, 3)
		s.AddFormula(g)
		status, err := s.Solve(ctx)
		if err != nil {
			t.Fatal(err)
		}
		combined := &cnf.Formula{NumVars: numVars}
		for _, c := range f.Clauses {
			combined.AddClause(c...)
		}
		for _, c := range g.Clauses {
			combined.AddClause(c...)
		}
		if want := bruteForceSat(combined); (status == Sat) != want {
			t.Fatalf("trial %d: post-GC incremental solve %v, brute force %v", trial, status, want)
		}
		if status == Sat {
			if ok, _ := combined.Eval(s.Model()); !ok {
				t.Fatalf("trial %d: post-GC model violates combined formula", trial)
			}
		}
	}
}
