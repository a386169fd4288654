package maxsat

import (
	"context"
	"fmt"
	"sort"
	"time"

	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/obs"
	"mpmcs4fta/internal/sat"
)

// BranchBound is a dedicated branch-and-bound Weighted Partial MaxSAT
// engine: depth-first search over the instance variables with unit
// propagation on the hard clauses and pruning by the weight of soft
// clauses already fully falsified. It needs no SAT oracle at all, which
// makes it a usefully different portfolio member — strong on small and
// highly-constrained instances, weak on large under-constrained ones.
//
// Propagation is counter-based. Each literal lists the clauses it
// occurs in, each clause counts its literal occurrences assigned true
// and false, and one assignment routine — taken by decisions and
// implied literals alike — updates the counters, the trail, a queue of
// hard clauses that became unit or falsified, and the running weight
// of falsified soft clauses. An assignment costs time proportional to
// its variable's occurrences, not to the instance size. The queue
// yields the lowest-indexed pending clause first, the order of a scan
// from clause 0, so the search tree and its Decisions, Conflicts and
// Propagations counts do not depend on how the kernel is organised.
//
// Run cooperatively (SolveWithProgress), the engine also prunes against
// the global incumbent published by sibling engines and publishes its
// own improving models.
type BranchBound struct{}

var _ ProgressSolver = (*BranchBound)(nil)

// Name implements Solver.
func (b *BranchBound) Name() string { return "branch-bound" }

type bbState struct {
	inst     *cnf.WCNF
	assign   []int8 // 0 unassigned, 1 true, -1 false; by variable
	order    []int  // variable branching order
	best     []bool
	bestCost int64
	steps    int64
	stats    obs.SolverStats

	// Propagation state. Occurrence lists hold one entry per literal
	// occurrence, so a duplicated literal counts twice and a clause
	// holding x and ¬x is satisfied by either value of x.
	hardOcc   occurrences
	softOcc   occurrences
	hardTrue  []int32   // by hard clause: occurrences assigned true
	hardFalse []int32   // by hard clause: occurrences assigned false
	softFalse []int32   // by soft clause: occurrences assigned false
	trail     []int     // assigned variables, oldest first
	units     unitQueue // hard clauses that may be unit or falsified
	falsified int64     // weight of the soft clauses all of whose literals are false

	prog     Progress
	bus      *obs.EventBus // live heartbeats; nil when disabled
	lastBeat time.Time
	globalUB int64 // cached sibling incumbent; -1 when none
	// minPrune is the smallest bound any prune ever used. On
	// completion the search has proven optimum ≥ min(bestCost,
	// minPrune): when a sibling's incumbent (below our own best)
	// pruned a branch, that branch may hide assignments cheaper than
	// our best — but none cheaper than the bound used. -1 = no prune.
	minPrune int64
}

// Solve implements Solver.
func (b *BranchBound) Solve(ctx context.Context, inst *cnf.WCNF) (Result, error) {
	return b.SolveWithProgress(ctx, inst, nil)
}

// SolveWithProgress implements ProgressSolver.
func (b *BranchBound) SolveWithProgress(ctx context.Context, inst *cnf.WCNF, prog Progress) (Result, error) {
	if err := inst.Validate(); err != nil {
		return Result{}, fmt.Errorf("maxsat: %w", err)
	}
	st := &bbState{
		inst:      inst,
		assign:    make([]int8, inst.NumVars+1),
		bestCost:  -1,
		hardOcc:   newOccurrences(inst.NumVars, len(inst.Hard), func(c int) cnf.Clause { return inst.Hard[c] }),
		softOcc:   newOccurrences(inst.NumVars, len(inst.Soft), func(c int) cnf.Clause { return inst.Soft[c].Clause }),
		hardTrue:  make([]int32, len(inst.Hard)),
		hardFalse: make([]int32, len(inst.Hard)),
		softFalse: make([]int32, len(inst.Soft)),
		trail:     make([]int, 0, inst.NumVars),
		prog:      prog,
		bus:       obs.BusFromContext(ctx),
		globalUB:  -1,
		minPrune:  -1,
	}
	// Empty and unit hard clauses are pending before any assignment;
	// empty soft clauses are falsified by every assignment.
	for c, clause := range inst.Hard {
		if len(clause) <= 1 {
			st.units.push(int32(c))
		}
	}
	for _, soft := range inst.Soft {
		if len(soft.Clause) == 0 {
			//lint:ignore weightsafe sums a subset of the soft weights, bounded by the Validate-checked total
			st.falsified += soft.Weight
		}
	}
	name := b.Name()
	if n := obs.EngineNameFromContext(ctx); n != "" {
		name = n
	}
	st.stats.Start(name)

	// Branch on heavier variables first: variables appearing in heavy
	// soft clauses decide more cost, so deciding them early tightens the
	// bound sooner.
	weightOf := make([]int64, inst.NumVars+1)
	for _, soft := range inst.Soft {
		for _, l := range soft.Clause {
			if soft.Weight > weightOf[l.Var()] {
				weightOf[l.Var()] = soft.Weight
			}
		}
	}
	st.order = make([]int, inst.NumVars)
	for v := 1; v <= inst.NumVars; v++ {
		st.order[v-1] = v
	}
	sort.SliceStable(st.order, func(i, j int) bool {
		return weightOf[st.order[i]] > weightOf[st.order[j]]
	})

	if err := st.search(ctx, 0); err != nil {
		if st.best == nil {
			return Result{Stats: st.stats}, err
		}
		// Anytime answer: the subtree below the incumbent is
		// unexplored, so no lower bound is proven — only feasibility.
		return verifyResult(inst, Result{Status: Feasible, Model: st.best, Cost: st.bestCost, Stats: st.stats})
	}
	if st.bestCost < 0 {
		if st.minPrune < 0 {
			// Exhaustive search, no prune, no model: the hard clauses
			// admit no assignment.
			return Result{Status: Infeasible, Stats: st.stats}, nil
		}
		// Every feasible assignment was cut off by a sibling's
		// incumbent: the search only proves optimum ≥ minPrune.
		if st.prog != nil {
			st.prog.PublishLower(st.minPrune)
		}
		st.stats.RecordBound(st.stats.Decisions, st.minPrune, -1)
		return Result{Status: Unknown, LowerBound: st.minPrune, Stats: st.stats}, nil
	}
	if st.minPrune >= 0 && st.minPrune < st.bestCost {
		// Completion proves optimum ≥ minPrune but the pruning bound
		// came from a sibling's better incumbent, so our own model is
		// not proven optimal.
		if st.prog != nil {
			st.prog.PublishLower(st.minPrune)
		}
		st.stats.RecordBound(st.stats.Decisions, st.minPrune, st.bestCost)
		return verifyResult(inst, Result{Status: Feasible, Model: st.best, Cost: st.bestCost, LowerBound: st.minPrune, Stats: st.stats})
	}
	if st.prog != nil {
		st.prog.PublishLower(st.bestCost)
	}
	st.stats.RecordBound(st.stats.Decisions, st.bestCost, st.bestCost)
	return verifyResult(inst, Result{Status: Optimal, Model: st.best, Cost: st.bestCost, Stats: st.stats})
}

// maybeHeartbeat publishes the search counters at the live-telemetry
// cadence (rate-limited like sat.Telemetry, clock consulted only at
// the steps&511 poll boundary).
func (st *bbState) maybeHeartbeat() {
	if !st.bus.Enabled() {
		return
	}
	now := time.Now()
	if st.lastBeat.IsZero() {
		st.lastBeat = now
		return
	}
	if now.Sub(st.lastBeat) < 500*time.Millisecond {
		return
	}
	st.lastBeat = now
	st.bus.Publish(obs.Heartbeat{
		Engine:       st.stats.Engine(),
		Conflicts:    st.stats.Conflicts,
		Decisions:    st.stats.Decisions,
		Propagations: st.stats.Propagations,
	})
}

// pruneBound is the effective upper bound to prune against: the lower
// of the engine's own incumbent and the cached global one; -1 = none.
func (st *bbState) pruneBound() int64 {
	pb := st.bestCost
	if st.globalUB >= 0 && (pb < 0 || st.globalUB < pb) {
		pb = st.globalUB
	}
	return pb
}

// search explores the node whose decisions are on the trail: it
// propagates the pending units, then branches on the first unassigned
// variable of order[next:] (every earlier one is assigned). The caller
// undoes the node's assignments.
func (st *bbState) search(ctx context.Context, next int) error {
	st.steps++
	if st.steps&511 == 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: %w", sat.ErrInterrupted, err)
		}
		// Refresh the sibling incumbent at the same cadence as the
		// cancellation check: the bound manager takes a lock, so per-node
		// polling would serialise the portfolio.
		if st.prog != nil {
			if cost, ok := st.prog.BestKnown(); ok {
				st.globalUB = cost
			}
		}
		st.maybeHeartbeat()
	}

	if !st.propagate() {
		st.stats.Conflicts++
		return nil
	}

	// Prune when already no better than the best incumbent (ours or a
	// sibling's). Any assignment below this node costs at least the
	// falsified weight, so optimum ≥ min over all prunes of the bound
	// used — tracked in minPrune for the completion-time optimality
	// argument.
	if pb := st.pruneBound(); pb >= 0 && st.falsified >= pb {
		if st.minPrune < 0 || pb < st.minPrune {
			st.minPrune = pb
		}
		return nil
	}

	for next < len(st.order) && st.assign[st.order[next]] != 0 {
		next++
	}
	if next == len(st.order) {
		// Complete assignment; hard clauses hold by propagation above.
		if cost := st.falsified; st.bestCost < 0 || cost < st.bestCost {
			st.stats.RecordBound(st.stats.Decisions, 0, cost)
			st.bestCost = cost
			st.best = make([]bool, st.inst.NumVars+1)
			for v := 1; v <= st.inst.NumVars; v++ {
				st.best[v] = st.assign[v] == 1
			}
			if st.prog != nil {
				st.prog.PublishModel(cost, st.best)
			}
		}
		return nil
	}

	branch := st.order[next]
	for _, val := range [2]int8{1, -1} {
		mark := len(st.trail)
		st.set(branch, val)
		st.stats.Decisions++
		err := st.search(ctx, next+1)
		st.undo(mark)
		if err != nil {
			return err
		}
	}
	return nil
}

// propagate assigns the literal of every pending unit hard clause,
// lowest clause index first, until none is pending. It reports false,
// with the queue emptied, when a hard clause has every literal false.
func (st *bbState) propagate() bool {
	for len(st.units) > 0 {
		c := st.units.pop()
		if st.hardTrue[c] > 0 {
			continue
		}
		clause := st.inst.Hard[c]
		switch int32(len(clause)) - st.hardFalse[c] {
		case 0:
			st.units = st.units[:0]
			return false
		case 1:
			for _, l := range clause {
				if st.assign[l.Var()] == 0 {
					val := int8(-1)
					if l.Pos() {
						val = 1
					}
					st.set(l.Var(), val)
					st.stats.Propagations++
					break
				}
			}
		}
	}
	return true
}

// set assigns v and pushes it on the trail: it counts v's literal
// occurrences, queues the hard clauses left with at most one
// unassigned literal and none true, and adds the weight of the soft
// clauses it falsifies.
func (st *bbState) set(v int, val int8) {
	st.assign[v] = val
	st.trail = append(st.trail, v)
	t, f := litIndexes(v, val)
	for _, c := range st.hardOcc.of(t) {
		st.hardTrue[c]++
	}
	for _, c := range st.hardOcc.of(f) {
		st.hardFalse[c]++
		if st.hardTrue[c] == 0 && int32(len(st.inst.Hard[c]))-st.hardFalse[c] <= 1 {
			st.units.push(c)
		}
	}
	for _, c := range st.softOcc.of(f) {
		st.softFalse[c]++
		if int(st.softFalse[c]) == len(st.inst.Soft[c].Clause) {
			//lint:ignore weightsafe sums a subset of the soft weights, bounded by the Validate-checked total
			st.falsified += st.inst.Soft[c].Weight
		}
	}
}

// undo unassigns the trail above mark, newest first, reversing set.
func (st *bbState) undo(mark int) {
	for i := len(st.trail) - 1; i >= mark; i-- {
		v := st.trail[i]
		t, f := litIndexes(v, st.assign[v])
		for _, c := range st.hardOcc.of(t) {
			st.hardTrue[c]--
		}
		for _, c := range st.hardOcc.of(f) {
			st.hardFalse[c]--
		}
		for _, c := range st.softOcc.of(f) {
			if int(st.softFalse[c]) == len(st.inst.Soft[c].Clause) {
				st.falsified -= st.inst.Soft[c].Weight
			}
			st.softFalse[c]--
		}
		st.assign[v] = 0
	}
	st.trail = st.trail[:mark]
}

// litIndex numbers literals densely: 2v for v, 2v+1 for ¬v.
func litIndex(l cnf.Lit) int {
	if l.Pos() {
		return 2 * l.Var()
	}
	return 2*l.Var() + 1
}

// litIndexes returns the indexes of the literals of v made true and
// false by assigning it val.
func litIndexes(v int, val int8) (t, f int) {
	if val == 1 {
		return 2 * v, 2*v + 1
	}
	return 2*v + 1, 2 * v
}

// occurrences lists, for every literal index i, the clauses in which
// literal i occurs: list[start[i]:start[i+1]], one entry per occurrence.
type occurrences struct {
	start []int32
	list  []int32
}

func newOccurrences(numVars, numClauses int, clause func(int) cnf.Clause) occurrences {
	n := 2 * (numVars + 1)
	start := make([]int32, n+1)
	for c := 0; c < numClauses; c++ {
		for _, l := range clause(c) {
			start[litIndex(l)+1]++
		}
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	list := make([]int32, start[n])
	fill := append([]int32(nil), start[:n]...)
	for c := 0; c < numClauses; c++ {
		for _, l := range clause(c) {
			i := litIndex(l)
			list[fill[i]] = int32(c)
			fill[i]++
		}
	}
	return occurrences{start: start, list: list}
}

func (o occurrences) of(i int) []int32 { return o.list[o.start[i]:o.start[i+1]] }

// unitQueue is a binary min-heap of hard clause indexes. A clause may
// be queued more than once and may be satisfied by the time it is
// popped; propagate skips such entries.
type unitQueue []int32

func (q *unitQueue) push(c int32) {
	h := append(*q, c)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	*q = h
}

func (q *unitQueue) pop() int32 {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; 2*i+1 < len(h); {
		small := 2*i + 1
		if right := small + 1; right < len(h) && h[right] < h[small] {
			small = right
		}
		if h[i] <= h[small] {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	*q = h
	return top
}
