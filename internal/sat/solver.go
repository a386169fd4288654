package sat

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/obs"
)

// Status is the outcome of a Solve call.
type Status int

// Solve outcomes.
const (
	Unknown Status = iota
	Sat
	Unsat
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// ErrInterrupted is returned (wrapped) when a Solve call is cancelled
// through its context.
var ErrInterrupted = errors.New("sat: interrupted")

// Search heuristic constants (the MiniSat defaults).
const (
	// varDecay is the VSIDS activity decay factor.
	varDecay = 0.95
	// clauseDecay is the learnt-clause activity decay factor.
	clauseDecay = 0.999
	// restartBase is the Luby restart unit in conflicts.
	restartBase = 100
)

// Stats counts solver work since construction.
type Stats struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	Learnt       int64
	Deleted      int64
	// Minimized counts literals removed from learnt clauses by
	// recursive minimisation and binary self-subsumption.
	Minimized int64
	// ClauseGCs counts compactions of the clause arena.
	ClauseGCs int64
}

// watcher pairs a clause ref with a blocker literal: when the blocker
// is already true the clause is satisfied and need not be touched, so
// propagation often decides on the 8-byte watcher alone without loading
// the clause.
type watcher struct {
	ref     clauseRef
	blocker lit
}

// seen-mark states used by conflict analysis and recursive clause
// minimisation. seenSource marks literals of the learnt clause under
// construction; seenRemovable/seenFailed cache litRedundant verdicts
// within one analyze call (the poison cache), so shared sub-DAGs of the
// implication graph are classified once.
const (
	seenNone      byte = 0
	seenSource    byte = 1
	seenRemovable byte = 2
	seenFailed    byte = 3
)

// shrinkElem is a litRedundant stack frame: resume examining the reason
// of l at literal index i.
type shrinkElem struct {
	i int
	l lit
}

// Solver is a CDCL SAT solver. It is not safe for concurrent use; run
// one Solver per goroutine.
type Solver struct {
	numVars   int
	ca        clauseArena // flat clause store; all clause state lives here
	clauses   []clauseRef
	learnts   []clauseRef
	watches   [][]watcher // indexed by lit: clauses to inspect when lit becomes true
	assigns   []lbool     // by variable
	level     []int
	reason    []clauseRef
	polarity  []bool // phase saving: last assigned value
	activity  []float64
	varInc    float64
	clauseInc float64
	order     *varHeap

	trail    []lit
	trailLim []int
	qhead    int

	seen        []byte // conflict-analysis marks, see seen* constants
	toClear     []int  // vars whose seen mark must be reset after analyze
	shrinkStack []shrinkElem
	learntBuf   []lit    // reusable learnt-clause buffer
	stamp       uint64   // shared stamp for seen2/levelStamp
	seen2       []uint64 // var -> stamp: learnt-clause membership marks
	levelStamp  []uint64 // level -> stamp: LBD distinct-level counting; grown by newDecisionLevel

	unsat   bool // established at level 0
	model   []bool
	core    []cnf.Lit
	assumps []lit

	maxLearnts float64

	// Budget propagator state (see SetBudget).
	budgetWeight  []int64 // by lit; 0 when not budgeted; nil until SetBudget
	budgetLits    []lit   // budgeted literals, sorted by descending weight
	budgetBound   int64
	budgetSum     int64 // weight of currently-true budgeted literals
	hasBudget     bool
	budgetRefresh func() (int64, bool)
	budgetScratch []lit // reusable reason-construction buffer
	// Reusable propagateBudget buffers: the true budget literals'
	// negations, heavy first, and their prefix weight sums.
	budgetTrueNegs []lit
	budgetPrefix   []int64

	stats Stats

	// Live telemetry (see SetTelemetry); nil when disabled.
	tel      *Telemetry
	lastBeat time.Time

	// testOnLearnt, when set (tests only), observes every learnt clause
	// right after conflict analysis, before backjumping.
	testOnLearnt func(learnt []lit, btLevel int)
}

// New returns a solver over variables 1..numVars (DIMACS numbering).
func New(numVars int) *Solver {
	s := &Solver{
		varInc:    1,
		clauseInc: 1,
	}
	s.order = newVarHeap()
	s.growTo(numVars)
	return s
}

// NumVars returns the current number of variables.
func (s *Solver) NumVars() int { return s.numVars }

// AddVars grows the variable range by n and returns the new NumVars.
func (s *Solver) AddVars(n int) int {
	s.growTo(s.numVars + n)
	return s.numVars
}

// growTo extends the per-variable state to numVars variables and
// queues only the new ones for branching: every older unassigned
// variable is already in the order heap, since Solve returns through
// cancelUntil(0), which re-inserts each variable it unassigns.
func (s *Solver) growTo(numVars int) {
	first := s.numVars
	for s.numVars < numVars {
		s.assigns = append(s.assigns, lUndef)
		s.level = append(s.level, 0)
		s.reason = append(s.reason, refUndef)
		s.polarity = append(s.polarity, false)
		s.activity = append(s.activity, 0)
		s.seen = append(s.seen, seenNone)
		s.seen2 = append(s.seen2, 0)
		s.watches = append(s.watches, nil, nil)
		if s.budgetWeight != nil {
			s.budgetWeight = append(s.budgetWeight, 0, 0)
		}
		s.numVars++
	}
	s.order.grow(s.numVars, s.activity)
	for v := first; v < s.numVars; v++ {
		s.order.insert(v)
	}
}

// Stats returns a copy of the work counters accumulated since
// construction (or the last ResetStats).
func (s *Solver) Stats() Stats { return s.stats }

// ResetStats returns the counters accumulated since construction or
// the last reset and zeroes them. Calling it after each Solve in an
// incremental loop yields per-call snapshots instead of counters that
// silently accumulate across successive MaxSAT iterations.
func (s *Solver) ResetStats() Stats {
	st := s.stats
	s.stats = Stats{}
	return st
}

func (s *Solver) value(l lit) lbool {
	v := s.assigns[l.variable()]
	if v == lUndef {
		return lUndef
	}
	if l.sign() {
		return -v
	}
	return v
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a clause over DIMACS literals. It must be called at
// decision level 0 (i.e. before Solve or between Solve calls). Variables
// beyond NumVars are allocated automatically. It returns false when the
// clause makes the instance trivially unsatisfiable.
func (s *Solver) AddClause(lits ...cnf.Lit) bool {
	if s.unsat {
		return false
	}
	maxVar := 0
	for _, l := range lits {
		if l == 0 {
			panic("sat: literal 0 in clause")
		}
		if v := l.Var(); v > maxVar {
			maxVar = v
		}
	}
	if maxVar > s.numVars {
		s.growTo(maxVar)
	}

	// Normalise: sort-free dedup and tautology/falsified-literal
	// elimination at level 0.
	out := make([]lit, 0, len(lits))
	for _, dl := range lits {
		l := fromDimacs(dl)
		switch s.value(l) {
		case lTrue:
			return true // satisfied at level 0
		case lFalse:
			continue
		}
		duplicate := false
		for _, existing := range out {
			if existing == l {
				duplicate = true
				break
			}
			if existing == l.neg() {
				return true // tautology
			}
		}
		if !duplicate {
			out = append(out, l)
		}
	}

	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		s.uncheckedEnqueue(out[0], refUndef)
		if s.propagateAll() != refUndef {
			s.unsat = true
			return false
		}
		return true
	}
	cr := s.ca.alloc(out, 0)
	s.clauses = append(s.clauses, cr)
	s.attach(cr)
	return true
}

// AddFormula adds every clause of a CNF formula.
func (s *Solver) AddFormula(f *cnf.Formula) bool {
	if f.NumVars > s.numVars {
		s.growTo(f.NumVars)
	}
	for _, c := range f.Clauses {
		if !s.AddClause(c...) {
			return false
		}
	}
	return true
}

// SetBudget installs (or replaces) the linear pseudo-Boolean constraint
// Σ weights[i]·[lits[i] true] ≤ bound. Weights must be positive. The
// constraint participates in propagation and conflict analysis like an
// ordinary clause set, but is enforced natively, so bounds involving
// large weights cost nothing to encode. Call at decision level 0.
func (s *Solver) SetBudget(lits []cnf.Lit, weights []int64, bound int64) error {
	if len(lits) != len(weights) {
		return fmt.Errorf("sat: budget lits/weights length mismatch %d != %d", len(lits), len(weights))
	}
	maxVar := 0
	for _, l := range lits {
		if v := l.Var(); v > maxVar {
			maxVar = v
		}
	}
	if maxVar > s.numVars {
		s.growTo(maxVar)
	}
	if s.budgetWeight == nil {
		s.budgetWeight = make([]int64, 2*s.numVars)
	}
	for i := range s.budgetWeight {
		s.budgetWeight[i] = 0
	}
	s.budgetLits = s.budgetLits[:0]
	var total int64
	for i, dl := range lits {
		if weights[i] <= 0 {
			return fmt.Errorf("sat: budget weight %d must be positive", weights[i])
		}
		sum, okAdd := cnf.AddWeights(total, weights[i])
		if !okAdd {
			return fmt.Errorf("sat: total budget weight overflows int64 at literal %d", i)
		}
		total = sum
		l := fromDimacs(dl)
		if s.budgetWeight[l] != 0 {
			return fmt.Errorf("sat: duplicate budget literal %v", dl)
		}
		s.budgetWeight[l] = weights[i]
		s.budgetLits = append(s.budgetLits, l)
	}
	// Descending weight order lets conflict explanations pick heavy
	// literals first, yielding shorter reasons.
	sortLitsByWeightDesc(s.budgetLits, s.budgetWeight)
	s.budgetBound = bound
	s.hasBudget = true
	s.recomputeBudgetSum()
	return nil
}

// SetBudgetBound tightens (or relaxes) the budget bound. Lowering the
// bound keeps all learnt clauses sound, which is how LinearSU iterates;
// raising it is rejected because earlier budget-derived clauses could be
// too strong.
func (s *Solver) SetBudgetBound(bound int64) error {
	if !s.hasBudget {
		return errors.New("sat: no budget installed")
	}
	if bound > s.budgetBound {
		return fmt.Errorf("sat: cannot raise budget bound from %d to %d", s.budgetBound, bound)
	}
	s.budgetBound = bound
	return nil
}

// SetBudgetRefresh installs a callback polled between restarts during
// Solve. When it returns (bound, true) with bound strictly below the
// current budget bound, the bound is tightened in place — the mechanism
// by which a cooperative portfolio feeds a sibling engine's better
// incumbent into an in-flight search. Bounds that would raise the
// current one are ignored (see SetBudgetBound): the search may hold
// learnt clauses derived from the tighter constraint. The callback runs
// on the solving goroutine; it must synchronise any shared state itself.
func (s *Solver) SetBudgetRefresh(f func() (int64, bool)) {
	s.budgetRefresh = f
}

// BudgetBound returns the current budget bound. It is only meaningful
// after SetBudget.
func (s *Solver) BudgetBound() int64 { return s.budgetBound }

// applyBudgetRefresh polls the refresh callback at a restart boundary
// (decision level 0) and tightens the bound when the callback offers a
// strictly lower one. Raising is silently skipped — never allowed.
func (s *Solver) applyBudgetRefresh() {
	if !s.hasBudget || s.budgetRefresh == nil {
		return
	}
	if bound, ok := s.budgetRefresh(); ok && bound < s.budgetBound {
		s.budgetBound = bound
	}
}

func (s *Solver) recomputeBudgetSum() {
	s.budgetSum = 0
	for _, l := range s.budgetLits {
		if s.value(l) == lTrue {
			//lint:ignore weightsafe sums a subset of the SetBudget-validated total, which fits int64
			s.budgetSum += s.budgetWeight[l]
		}
	}
}

func sortLitsByWeightDesc(lits []lit, weight []int64) {
	// Insertion sort: budget lists are installed once and moderately
	// sized; avoids pulling in sort for a hot path type.
	for i := 1; i < len(lits); i++ {
		l := lits[i]
		j := i - 1
		for j >= 0 && weight[lits[j]] < weight[l] {
			lits[j+1] = lits[j]
			j--
		}
		lits[j+1] = l
	}
}

func (s *Solver) attach(cr clauseRef) {
	cl := s.ca.lits(cr)
	s.watches[cl[0].neg()] = append(s.watches[cl[0].neg()], watcher{ref: cr, blocker: cl[1]})
	s.watches[cl[1].neg()] = append(s.watches[cl[1].neg()], watcher{ref: cr, blocker: cl[0]})
}

// sweepWatches removes every watcher whose clause has been marked
// deleted: one pass over all watch lists per reduceDB instead of an
// O(list) scan per detached clause.
func (s *Solver) sweepWatches() {
	for l := range s.watches {
		ws := s.watches[l]
		j := 0
		for _, w := range ws {
			if !s.ca.deleted(w.ref) {
				ws[j] = w
				j++
			}
		}
		s.watches[l] = ws[:j]
	}
}

// garbageCollect compacts the clause arena: live clauses are copied to
// a fresh arena and every ref (watch lists, reasons, clause DBs) is
// remapped through forwarding pointers left in the old storage. Deleted
// clauses and stale budget reasons are reclaimed wholesale.
func (s *Solver) garbageCollect() {
	to := clauseArena{data: make([]lit, 0, s.ca.words()-s.ca.wasted)}
	for l := range s.watches {
		ws := s.watches[l]
		for i := range ws {
			s.ca.reloc(&ws[i].ref, &to)
		}
	}
	for v := 0; v < s.numVars; v++ {
		if s.reason[v] != refUndef {
			s.ca.reloc(&s.reason[v], &to)
		}
	}
	for i := range s.clauses {
		s.ca.reloc(&s.clauses[i], &to)
	}
	for i := range s.learnts {
		s.ca.reloc(&s.learnts[i], &to)
	}
	s.ca = to
	s.stats.ClauseGCs++
}

// releaseTemp frees a transient budget-propagator clause. No-op for
// ordinary clauses. Budget reasons are allocated in trail order and
// released newest first on backtrack (the conflict clause just before),
// so most of them sit at the arena's end and their words are reused at
// once instead of waiting for a compacting GC.
func (s *Solver) releaseTemp(cr clauseRef) {
	if cr != refUndef && s.ca.temp(cr) && !s.ca.deleted(cr) {
		s.ca.release(cr)
	}
}

func (s *Solver) uncheckedEnqueue(l lit, from clauseRef) {
	v := l.variable()
	if l.sign() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
	if s.hasBudget {
		if w := s.budgetWeight[l]; w != 0 {
			s.budgetSum += w
		}
	}
}

// propagate performs clause propagation until fixpoint or conflict
// (refUndef = no conflict). The loop works directly on arena words:
// clause headers and literals are adjacent, so the common cases (blocker
// true, first literal true, early new watch) touch one cache line.
func (s *Solver) propagate() clauseRef {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++

		ws := s.watches[p]
		j := 0
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				ws[j] = w
				j++
				continue
			}
			cr := w.ref
			base := int(cr) + hdrWords
			falseLit := p.neg()
			if s.ca.data[base] == falseLit {
				s.ca.data[base], s.ca.data[base+1] = s.ca.data[base+1], falseLit
			}
			first := s.ca.data[base]
			if first != w.blocker && s.value(first) == lTrue {
				ws[j] = watcher{ref: cr, blocker: first}
				j++
				continue
			}
			size := s.ca.size(cr)
			found := false
			for k := 2; k < size; k++ {
				if s.value(s.ca.data[base+k]) != lFalse {
					s.ca.data[base+1], s.ca.data[base+k] = s.ca.data[base+k], s.ca.data[base+1]
					nw := s.ca.data[base+1].neg()
					s.watches[nw] = append(s.watches[nw], watcher{ref: cr, blocker: first})
					found = true
					break
				}
			}
			if found {
				continue // clause moved to another watch list
			}
			// Unit or conflicting.
			ws[j] = watcher{ref: cr, blocker: first}
			j++
			if s.value(first) == lFalse {
				// Conflict: keep remaining watchers, stop.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return cr
			}
			s.uncheckedEnqueue(first, cr)
		}
		s.watches[p] = ws[:j]
	}
	return refUndef
}

// propagateAll interleaves clause propagation with the budget
// propagator until global fixpoint or conflict.
func (s *Solver) propagateAll() clauseRef {
	//lint:ignore ctxpoll the propagation fixpoint assigns literals monotonically, so iterations are bounded by the variable count; ctx is polled per conflict in search()
	for {
		if confl := s.propagate(); confl != refUndef {
			return confl
		}
		if !s.hasBudget {
			return refUndef
		}
		confl, propagated := s.propagateBudget()
		if confl != refUndef {
			return confl
		}
		if !propagated {
			return refUndef
		}
	}
}

// propagateBudget enforces the pseudo-Boolean budget. It returns a
// conflict clause when the currently-true budget literals already exceed
// the bound, and otherwise implies the negation of any unassigned
// literal that no longer fits. Reason/conflict clauses are materialised
// eagerly into the arena (tagged temp, reclaimed by the clause GC once
// backtracked past); they are logically implied by the constraint, so
// reusing them in conflict analysis is sound.
//
// All implications of one round share the same set of true budget
// literals (the enqueues assign literals false, never true), so that
// set — heavy first, with prefix weight sums — is collected once and
// each reason is a prefix of it: without this, a zero-slack round
// costs O(n) full scans per implied literal, quadratic overall, which
// dominated whole solves on large equal-weight instances.
func (s *Solver) propagateBudget() (clauseRef, bool) {
	if s.budgetSum > s.budgetBound {
		return s.budgetConflict(), false
	}
	slack := s.budgetBound - s.budgetSum
	propagated := false
	// trueNegs holds the negations of the true budget literals, heavy
	// first, and prefix[i] = Σ weight(trueNegs[:i+1]); both reuse the
	// solver's buffers and are filled at the first implication.
	var (
		trueNegs []lit
		prefix   []int64
	)
	collected := false
	for _, l := range s.budgetLits {
		w := s.budgetWeight[l]
		if w <= slack {
			// budgetLits is sorted by descending weight: all later
			// literals fit as well.
			break
		}
		if s.value(l) != lUndef {
			continue
		}
		if !collected {
			collected = true
			trueNegs, prefix = s.budgetTrueNegs[:0], s.budgetPrefix[:0]
			for _, t := range s.budgetLits {
				if s.value(t) == lTrue {
					sum := s.budgetWeight[t]
					if len(prefix) > 0 {
						sum += prefix[len(prefix)-1]
					}
					trueNegs = append(trueNegs, t.neg())
					prefix = append(prefix, sum)
				}
			}
			s.budgetTrueNegs, s.budgetPrefix = trueNegs, prefix
		}
		// The shortest heavy-first prefix t₁…tₘ with Σweight + w > bound
		// explains the implication ¬ℓ as the reason implied ∨ ¬t₁ ∨ … ∨ ¬tₘ.
		need := s.budgetBound - w
		idx := sort.Search(len(prefix), func(i int) bool { return prefix[i] > need })
		m := idx + 1
		if idx == len(prefix) {
			// Only reachable when need < 0 with no true literals: the
			// budget alone forbids ℓ, a unit reason.
			m = 0
		}
		s.budgetScratch = append(s.budgetScratch[:0], l.neg())
		s.budgetScratch = append(s.budgetScratch, trueNegs[:m]...)
		cr := s.ca.alloc(s.budgetScratch, flagTemp)
		s.uncheckedEnqueue(l.neg(), cr)
		propagated = true
	}
	return refUndef, propagated
}

// budgetConflict builds a clause ¬t₁ ∨ … ∨ ¬tₖ from a (greedy, heavy
// first) subset of true budget literals whose weights already exceed the
// bound. Every literal in it is currently false, as conflict analysis
// expects.
func (s *Solver) budgetConflict() clauseRef {
	s.budgetScratch = s.budgetScratch[:0]
	var sum int64
	for _, l := range s.budgetLits {
		if s.value(l) == lTrue {
			s.budgetScratch = append(s.budgetScratch, l.neg())
			//lint:ignore weightsafe sums a subset of the SetBudget-validated total, which fits int64
			sum += s.budgetWeight[l]
			if sum > s.budgetBound {
				break
			}
		}
	}
	return s.ca.alloc(s.budgetScratch, flagTemp)
}

func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, len(s.trail))
	// Decision levels can exceed numVars: each already-satisfied
	// assumption burns a dummy level, so levelStamp must cover the
	// actual level range, not just 0..numVars.
	for len(s.levelStamp) <= len(s.trailLim) {
		s.levelStamp = append(s.levelStamp, 0)
	}
}

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.variable()
		if s.hasBudget {
			if w := s.budgetWeight[l]; w != 0 {
				s.budgetSum -= w
			}
		}
		s.polarity[v] = s.assigns[v] == lTrue
		s.assigns[v] = lUndef
		s.releaseTemp(s.reason[v]) // budget reasons die with their assignment
		s.reason[v] = refUndef
		s.order.insert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		s.order.rebuild()
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(cr clauseRef) {
	act := s.ca.act(cr) + float32(s.clauseInc)
	s.ca.setAct(cr, act)
	if act > 1e20 {
		for _, c := range s.learnts {
			s.ca.setAct(c, s.ca.act(c)*1e-20)
		}
		s.clauseInc *= 1e-20
	}
}

func (s *Solver) decayActivities() {
	s.varInc /= varDecay
	s.clauseInc /= clauseDecay
}

// analyze performs first-UIP conflict analysis and returns the learnt
// clause (asserting literal first) and the backjump level. The clause
// is minimised twice: recursively against the implication graph
// (litRedundant) and by self-subsuming resolution with binary clauses
// containing the asserting literal. The returned slice aliases an
// internal buffer valid until the next analyze call.
func (s *Solver) analyze(confl clauseRef) ([]lit, int) {
	learnt := append(s.learntBuf[:0], litUndef)
	pathC := 0
	p := litUndef
	idx := len(s.trail) - 1
	s.toClear = s.toClear[:0]

	//lint:ignore ctxpoll first-UIP resolution walks the trail backwards, so iterations are bounded by the trail length
	for {
		if s.ca.learnt(confl) {
			s.bumpClause(confl)
		}
		cl := s.ca.lits(confl)
		start := 0
		if p != litUndef {
			start = 1
		}
		for _, q := range cl[start:] {
			v := q.variable()
			if s.seen[v] == seenNone && s.level[v] > 0 {
				s.seen[v] = seenSource
				s.toClear = append(s.toClear, v)
				s.bumpVar(v)
				if s.level[v] >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		for s.seen[s.trail[idx].variable()] == seenNone {
			idx--
		}
		p = s.trail[idx]
		idx--
		confl = s.reason[p.variable()]
		s.seen[p.variable()] = seenNone
		pathC--
		if pathC <= 0 {
			break
		}
	}
	learnt[0] = p.neg()

	// Recursive minimisation: drop any literal whose falsification is
	// implied by the rest of the clause, following reason chains all the
	// way down (MiniSat 1.14 lineage, with removable/failed caching).
	j := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].variable()
		if s.reason[v] == refUndef || !s.litRedundant(learnt[i]) {
			learnt[j] = learnt[i]
			j++
		}
	}
	s.stats.Minimized += int64(len(learnt) - j)
	learnt = learnt[:j]

	learnt = s.binSelfSubsume(learnt)

	for _, v := range s.toClear {
		s.seen[v] = seenNone
	}

	// Find the backjump level: highest level among learnt[1:].
	btLevel := 0
	if len(learnt) > 1 {
		maxIdx := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].variable()] > s.level[learnt[maxIdx].variable()] {
				maxIdx = i
			}
		}
		learnt[1], learnt[maxIdx] = learnt[maxIdx], learnt[1]
		btLevel = s.level[learnt[1].variable()]
	}
	s.learntBuf = learnt
	return learnt, btLevel
}

// litRedundant reports whether learnt literal p is redundant: every
// path from p's reason back to the conflict eventually reaches literals
// already in the learnt clause (seenSource) or level 0. It runs a
// depth-first search over reason clauses with an explicit stack, caching
// verdicts in the seen marks — seenRemovable for proven-redundant
// literals, seenFailed (poison) for literals with a decision among
// their ancestors — so repeated queries within one analyze call stay
// linear in the implication graph.
func (s *Solver) litRedundant(p lit) bool {
	s.shrinkStack = s.shrinkStack[:0]
	cl := s.ca.lits(s.reason[p.variable()])
	//lint:ignore ctxpoll the DFS visits each implication-graph node at most once (seen-mark cache), so iterations are bounded by the trail length
	for i := 1; ; i++ {
		if i < len(cl) {
			q := cl[i]
			v := q.variable()
			// Level-0 and cached-removable antecedents cannot block
			// redundancy; literals already in the learnt clause are
			// exactly the targets the search may stop at.
			if s.level[v] == 0 || s.seen[v] == seenSource || s.seen[v] == seenRemovable {
				continue
			}
			// A decision, or a literal already proven non-redundant:
			// poison the whole DFS path and fail.
			if s.reason[v] == refUndef || s.seen[v] == seenFailed {
				s.shrinkStack = append(s.shrinkStack, shrinkElem{0, p})
				for _, e := range s.shrinkStack {
					ev := e.l.variable()
					if s.seen[ev] == seenNone {
						s.seen[ev] = seenFailed
						s.toClear = append(s.toClear, ev)
					}
				}
				return false
			}
			// Recurse into q's reason, remembering where to resume.
			s.shrinkStack = append(s.shrinkStack, shrinkElem{i, p})
			i = 0
			p = q
			cl = s.ca.lits(s.reason[p.variable()])
		} else {
			// p's entire reason checked out: cache and pop.
			if pv := p.variable(); s.seen[pv] == seenNone {
				s.seen[pv] = seenRemovable
				s.toClear = append(s.toClear, pv)
			}
			if len(s.shrinkStack) == 0 {
				return true
			}
			top := s.shrinkStack[len(s.shrinkStack)-1]
			s.shrinkStack = s.shrinkStack[:len(s.shrinkStack)-1]
			i, p = top.i, top.l
			cl = s.ca.lits(s.reason[p.variable()])
		}
	}
}

// binSelfSubsume strengthens the learnt clause by on-the-fly
// self-subsuming resolution with binary clauses: for the asserting
// literal p = learnt[0], any binary clause (p ∨ q) with q currently true
// and ¬q in the learnt clause resolves to a clause that subsumes the
// learnt one, so ¬q is dropped. Binary clauses containing p all live in
// watches[¬p] (binary watchers never migrate), so one scan of that list
// finds every candidate.
func (s *Solver) binSelfSubsume(learnt []lit) []lit {
	if len(learnt) < 2 {
		return learnt
	}
	s.stamp++
	for _, l := range learnt[1:] {
		s.seen2[l.variable()] = s.stamp
	}
	removed := 0
	for _, w := range s.watches[learnt[0].neg()] {
		if s.ca.size(w.ref) != 2 {
			continue
		}
		bin := s.ca.lits(w.ref)
		other := bin[0]
		if other == learnt[0] {
			other = bin[1]
		}
		// learnt[1:] literals are all false; if other is true and its
		// variable is marked, the learnt clause contains exactly ¬other.
		if s.seen2[other.variable()] == s.stamp && s.value(other) == lTrue {
			s.seen2[other.variable()] = 0
			removed++
		}
	}
	if removed == 0 {
		return learnt
	}
	j := 1
	for i := 1; i < len(learnt); i++ {
		if s.seen2[learnt[i].variable()] == s.stamp {
			learnt[j] = learnt[i]
			j++
		}
	}
	s.stats.Minimized += int64(removed)
	return learnt[:j]
}

// computeLBD counts distinct decision levels among lits using a stamped
// per-level scratch array (no per-call allocation).
func (s *Solver) computeLBD(lits []lit) int {
	s.stamp++
	n := 0
	for _, l := range lits {
		lv := s.level[l.variable()]
		if s.levelStamp[lv] != s.stamp {
			s.levelStamp[lv] = s.stamp
			n++
		}
	}
	return n
}

// analyzeFinal computes the subset of assumptions responsible for
// falsifying assumption literal a (which currently evaluates false).
func (s *Solver) analyzeFinal(a lit) []cnf.Lit {
	out := []cnf.Lit{toDimacs(a)}
	if s.decisionLevel() == 0 {
		return out
	}
	v := a.variable()
	s.seen[v] = seenSource
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		tv := s.trail[i].variable()
		if s.seen[tv] == seenNone {
			continue
		}
		if r := s.reason[tv]; r != refUndef {
			for _, q := range s.ca.lits(r)[1:] {
				if s.level[q.variable()] > 0 {
					s.seen[q.variable()] = seenSource
				}
			}
		} else {
			// A decision inside the assumption prefix: an assumption
			// literal (true on trail, so the assumption is trail[i]).
			out = append(out, toDimacs(s.trail[i]))
		}
		s.seen[tv] = seenNone
	}
	s.seen[v] = seenNone
	return out
}

// reduceDB deletes the less valuable half of the learnt clauses. Doomed
// clauses are only flagged; a single sweep over the watch lists then
// drops their watchers (instead of two O(list) detach scans per clause),
// and the arena is compacted once enough storage is dead.
func (s *Solver) reduceDB() {
	// Sort learnts: glue clauses (lbd<=2) and high-activity clauses are
	// valuable; delete the worse half of the rest.
	sortable := make([]clauseRef, 0, len(s.learnts))
	kept := make([]clauseRef, 0, len(s.learnts))
	for _, cr := range s.learnts {
		if s.ca.lbd(cr) <= 2 || s.ca.size(cr) == 2 || s.locked(cr) {
			kept = append(kept, cr)
		} else {
			sortable = append(sortable, cr)
		}
	}
	s.sortClausesWorstFirst(sortable)
	drop := len(sortable) / 2
	for i, cr := range sortable {
		if i < drop {
			s.ca.markDeleted(cr)
			s.stats.Deleted++
		} else {
			kept = append(kept, cr)
		}
	}
	s.learnts = kept
	if drop > 0 {
		s.sweepWatches()
	}
	s.maybeGC()
}

// maybeGC compacts the arena when at least 20% of it is dead storage
// (deleted learnt clauses and retired budget reasons).
func (s *Solver) maybeGC() {
	if s.ca.wasted*5 > s.ca.words() {
		s.garbageCollect()
	}
}

func (s *Solver) sortClausesWorstFirst(cls []clauseRef) {
	// Worst = high LBD, then low activity.
	lessWorse := func(a, b clauseRef) bool {
		if la, lb := s.ca.lbd(a), s.ca.lbd(b); la != lb {
			return la > lb
		}
		return s.ca.act(a) < s.ca.act(b)
	}
	// Simple heapless sort; clause counts here are moderate.
	for i := 1; i < len(cls); i++ {
		c := cls[i]
		j := i - 1
		for j >= 0 && !lessWorse(cls[j], c) {
			cls[j+1] = cls[j]
			j--
		}
		cls[j+1] = c
	}
}

func (s *Solver) locked(cr clauseRef) bool {
	first := s.ca.lits(cr)[0]
	return s.reason[first.variable()] == cr && s.value(first) == lTrue
}

func (s *Solver) pickBranchLit() lit {
	for !s.order.empty() {
		v := s.order.removeMax()
		if s.assigns[v] == lUndef {
			return mkLit(v, !s.polarity[v])
		}
	}
	return litUndef
}

// luby computes the Luby restart sequence value for index i (1-based):
// 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
func luby(i int64) int64 {
	//lint:ignore ctxpoll terminates in O(log i): each iteration doubles the segment length until it covers i
	for k := uint(1); ; k++ {
		segEnd := (int64(1) << k) - 1
		if i == segEnd {
			return int64(1) << (k - 1)
		}
		if i < segEnd {
			// Recurse into the repeated prefix of the segment.
			i -= (int64(1) << (k - 1)) - 1
			k = 0
		}
	}
}

// Solve determines satisfiability under the given assumptions. On Sat,
// Model reports a satisfying assignment; on Unsat with assumptions,
// Core reports a subset of assumptions sufficient for unsatisfiability.
// The context cancels long searches (returning ErrInterrupted).
func (s *Solver) Solve(ctx context.Context, assumptions ...cnf.Lit) (Status, error) {
	if s.unsat {
		s.core = nil
		return Unsat, nil
	}
	s.model = nil
	s.core = nil
	s.assumps = s.assumps[:0]
	for _, a := range assumptions {
		if v := a.Var(); v > s.numVars {
			s.growTo(v)
		}
		s.assumps = append(s.assumps, fromDimacs(a))
	}

	if s.maxLearnts == 0 {
		s.maxLearnts = float64(len(s.clauses)) / 3
		if s.maxLearnts < 1000 {
			s.maxLearnts = 1000
		}
	}

	defer s.cancelUntil(0)

	var restarts int64
	for {
		// Restart boundaries double as GC points: retired budget-reason
		// clauses (temp allocations) would otherwise only be reclaimed
		// at reduceDB, which easy incremental workloads never reach.
		s.maybeGC()
		s.applyBudgetRefresh()
		limit := luby(restarts+1) * restartBase
		status, err := s.search(ctx, limit)
		if err != nil {
			return Unknown, err
		}
		if status != Unknown {
			return status, nil
		}
		restarts++
		s.stats.Restarts++
		if t := s.tel; t != nil && t.Bus.Enabled() {
			t.Bus.Publish(obs.RestartFired{
				Engine:    t.Engine,
				Restarts:  s.stats.Restarts,
				Conflicts: s.stats.Conflicts,
			})
		}
	}
}

// search runs CDCL until a result, a restart (after conflictLimit
// conflicts), or cancellation.
func (s *Solver) search(ctx context.Context, conflictLimit int64) (Status, error) {
	var conflicts int64
	for {
		confl := s.propagateAll()
		if confl != refUndef {
			s.stats.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.releaseTemp(confl)
				s.unsat = true
				s.core = nil
				return Unsat, nil
			}
			learnt, btLevel := s.analyze(confl)
			s.releaseTemp(confl)
			if s.testOnLearnt != nil {
				s.testOnLearnt(learnt, btLevel)
			}
			if s.tel != nil {
				s.tel.LearntLen.Observe(float64(len(learnt)))
			}
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], refUndef)
			} else {
				cr := s.ca.alloc(learnt, flagLearnt)
				s.ca.setLBD(cr, s.computeLBD(learnt))
				s.learnts = append(s.learnts, cr)
				s.attach(cr)
				s.bumpClause(cr)
				s.uncheckedEnqueue(learnt[0], cr)
				s.stats.Learnt++
			}
			s.decayActivities()

			if conflicts&1023 == 0 {
				if err := ctx.Err(); err != nil {
					return Unknown, fmt.Errorf("%w: %w", ErrInterrupted, err)
				}
				s.maybeHeartbeat()
			}
			continue
		}

		if conflicts >= conflictLimit {
			s.cancelUntil(0)
			return Unknown, nil
		}
		if float64(len(s.learnts)) >= s.maxLearnts {
			s.reduceDB()
			s.maxLearnts *= 1.1
		}

		next := litUndef
		for s.decisionLevel() < len(s.assumps) {
			a := s.assumps[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				s.newDecisionLevel() // dummy level; already satisfied
			case lFalse:
				s.core = s.analyzeFinal(a)
				return Unsat, nil
			default:
				next = a
			}
			if next != litUndef {
				break
			}
		}
		if next == litUndef {
			next = s.pickBranchLit()
			if next == litUndef {
				s.storeModel()
				return Sat, nil
			}
			s.stats.Decisions++
			// Conflict-free descents never reach the conflict-side poll
			// above, yet with a budget each decision can trigger long
			// propagation rounds — poll cancellation here too.
			if s.stats.Decisions&1023 == 0 {
				if err := ctx.Err(); err != nil {
					return Unknown, fmt.Errorf("%w: %w", ErrInterrupted, err)
				}
				s.maybeHeartbeat()
			}
		}
		s.newDecisionLevel()
		s.uncheckedEnqueue(next, refUndef)
	}
}

func (s *Solver) storeModel() {
	s.model = make([]bool, s.numVars+1)
	for v := 0; v < s.numVars; v++ {
		s.model[v+1] = s.assigns[v] == lTrue
	}
}

// Model returns the satisfying assignment from the last Sat result,
// indexed by DIMACS variable (index 0 unused). Unassigned variables (in
// case of early termination) read false.
func (s *Solver) Model() []bool { return s.model }

// Core returns the subset of the last Solve call's assumptions that was
// shown jointly unsatisfiable with the clause set. It is nil when the
// instance is unsatisfiable without assumptions.
func (s *Solver) Core() []cnf.Lit { return s.core }
