package decomp

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mpmcs4fta/internal/obs"
	"mpmcs4fta/internal/sched"
)

// ModuleSolution is what the caller's Solver returns for one plan
// node: the node's quotient-level MPMCS and how certain it is.
type ModuleSolution struct {
	// CutSet is the quotient-level minimal cut set — ids from the
	// node's Tree, so it may contain pseudo-events (child node ids).
	CutSet []string
	// Probability is the quotient MPMCS probability with child optima
	// substituted — the value the parent sees as this pseudo-event's
	// probability. 0 when Impossible.
	Probability float64
	// Optimal is true when the solve proved CutSet maximal-probability
	// for the quotient; false for an anytime (FEASIBLE) answer.
	Optimal bool
	// GapLog bounds, in −log-probability space, how far an anytime
	// answer may sit above the quotient optimum (0 when Optimal).
	GapLog float64
	// Impossible marks a module whose top can never occur: no cut set
	// exists. The module becomes a p=0 pseudo-event in its parent.
	Impossible bool
	// Winner names the engine that produced the answer.
	Winner string
	// Stats carries the winning engine's solver counters for this node.
	Stats obs.SolverStats
	// Vars, HardClauses and SoftClauses size the node's WCNF instance.
	Vars, HardClauses, SoftClauses int
	// ElapsedMS is the node's wall-clock solve time (filled by Execute).
	ElapsedMS float64
}

// Solver solves one plan node. By the time it runs, every pseudo-event
// in node.Tree carries its child module's solved probability. A solver
// signals "no cut set" by returning Impossible rather than an error;
// errors abort the whole plan.
type Solver func(ctx context.Context, node *PlanNode) (ModuleSolution, error)

// ExecOptions configures plan execution.
type ExecOptions struct {
	// Bus receives ModuleStarted/ModuleFinished events (nil = off).
	Bus *obs.EventBus
}

// nodeFloor is the minimum deadline slice carved for one node when the
// parent context has a deadline, so a node scheduled late still gets a
// workable slice (the parent deadline still caps it).
const nodeFloor = 50 * time.Millisecond

// Outcome is the recombined result of a plan execution.
type Outcome struct {
	// CutSet is the final MPMCS over real basic events: the root
	// quotient's cut set with every pseudo-event expanded. Nil when
	// Impossible.
	CutSet []string
	// Optimal is true when every node proved its quotient optimum — the
	// composed answer is then the global optimum.
	Optimal bool
	// GapLog is the composed global gap in −log-probability space: the
	// sum of the node gaps. A pseudo-event's soft clause is falsified
	// at most once per model, so a child's gap inflates the costs its
	// parent reasons over by at most that gap; summing node gaps is
	// therefore a sound (if conservative — modules outside the chosen
	// cut set still count) bound on how far the composed answer can
	// sit above the true global optimum.
	GapLog float64
	// Impossible is true when the root module has no cut set at all.
	Impossible bool
	// Solutions holds each node's ModuleSolution by node id.
	Solutions map[string]ModuleSolution
}

// bounds composes the per-module verdicts into one global view while
// the plan runs: all-optimal status and the summed log-space gap — the
// decomposition-level analogue of portfolio.Bounds. Engines race
// inside one module; bounds compose across modules, so an anytime
// interrupt still yields a verified FEASIBLE answer with a global gap.
type bounds struct {
	mu      sync.Mutex
	gapLog  float64 // guarded by mu
	optimal bool    // guarded by mu
	done    int     // guarded by mu
}

func newBounds() *bounds { return &bounds{optimal: true} }

// record folds one finished module into the composed view.
func (b *bounds) record(sol ModuleSolution) {
	b.mu.Lock()
	b.done++
	b.gapLog += sol.GapLog
	if !sol.Optimal && !sol.Impossible {
		b.optimal = false
	}
	b.mu.Unlock()
}

// snapshot returns the composed (allOptimal, ΣgapLog, modulesDone).
func (b *bounds) snapshot() (bool, float64, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.optimal, b.gapLog, b.done
}

// nodeDone is one node's completion message back to the coordinator.
type nodeDone struct {
	id  string
	sol ModuleSolution
	err error
}

// Execute runs the plan on a GOMAXPROCS-sized worker pool that lives
// for the call: leaves go to the pool first, each completed module
// substitutes its probability into the parent quotient, and a node is
// submitted once all of its children are solved. Deadline budget is
// carved per node from the parent context in proportion to the node's
// share of the not-yet-solved events, so an overall --timeout is split
// across sub-solves instead of letting the first one starve the rest. The first node error cancels the remaining
// plan; already-queued nodes still drain (observing the dead context)
// so Execute never strands pool workers.
//
// All plan state (pending counts, quotient substitution, submissions)
// lives on the coordinating goroutine; workers only send completion
// messages over a fully-buffered channel, so a full pool queue can
// never deadlock against task-spawns-task submission.
func Execute(ctx context.Context, plan *Plan, solve Solver, opts ExecOptions) (*Outcome, error) {
	if plan == nil || len(plan.Nodes) == 0 {
		return nil, fmt.Errorf("decomp: empty plan")
	}
	pool := sched.New(0)
	defer pool.Close()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	comp := newBounds()
	// Buffered for every node: a worker's completion send never blocks,
	// so workers always finish even while the coordinator is itself
	// blocked in pool.Submit.
	results := make(chan nodeDone, len(plan.Nodes))

	runNode := func(nodeID string, share float64) func(context.Context) {
		return func(poolCtx context.Context) {
			if err := poolCtx.Err(); err != nil {
				results <- nodeDone{id: nodeID, err: err}
				return
			}
			node := plan.Nodes[nodeID]
			nodeCtx, nodeCancel := sched.Carve(poolCtx, share, nodeFloor)
			defer nodeCancel()

			bus := opts.Bus
			if bus.Enabled() {
				bus.Publish(obs.ModuleStarted{Module: nodeID, Events: node.Events, Children: node.Children})
			}
			start := time.Now()
			sol, err := solve(nodeCtx, node)
			sol.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
			if bus.Enabled() {
				fin := obs.ModuleFinished{
					Module:      nodeID,
					Probability: sol.Probability,
					Winner:      sol.Winner,
					ElapsedMS:   sol.ElapsedMS,
				}
				switch {
				case err != nil:
					fin.Status = "ERROR"
					fin.Err = err.Error()
				case sol.Impossible:
					fin.Status = "INFEASIBLE"
				case sol.Optimal:
					fin.Status = "OPTIMAL"
				default:
					fin.Status = "FEASIBLE"
				}
				bus.Publish(fin)
			}
			if err == nil {
				comp.record(sol)
			}
			results <- nodeDone{id: nodeID, sol: sol, err: err}
		}
	}

	// Coordinator state — single-goroutine, no locking needed.
	var (
		solutions = make(map[string]ModuleSolution, len(plan.Nodes))
		pending   = make(map[string]int, len(plan.Nodes))
		remaining = plan.TotalEvents
		firstErr  error
		submitted int
	)
	submit := func(nodeID string) {
		share := 1.0
		if remaining > 0 {
			share = float64(plan.Nodes[nodeID].Events) / float64(remaining)
		}
		if err := pool.Submit(ctx, runNode(nodeID, share)); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("decomp: submit module %q: %w", nodeID, err)
			}
			cancel()
			return
		}
		submitted++
	}

	for id, node := range plan.Nodes {
		pending[id] = len(node.Children)
	}
	// Plan order is bottom-up, so its prefix holds the leaves; submit
	// in that order for a deterministic start.
	for _, id := range plan.Order {
		if pending[id] == 0 {
			submit(id)
		}
	}

	for done := 0; done < submitted; done++ {
		r := <-results
		if r.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("decomp: module %q: %w", r.id, r.err)
			}
			cancel() // stop running solves; queued ones drain fast
			continue
		}
		solutions[r.id] = r.sol
		node := plan.Nodes[r.id]
		remaining -= node.Events
		if node.Parent == "" || firstErr != nil {
			continue
		}
		parent := plan.Nodes[node.Parent]
		// The solved module re-enters its parent as a pseudo-event: its
		// MPMCS probability (0 for an impossible module, which the
		// weight transform turns into a hard "cannot fail" constraint).
		if err := parent.Tree.SetProb(r.id, r.sol.Probability); err != nil {
			firstErr = fmt.Errorf("decomp: substitute module %q into %q: %w", r.id, node.Parent, err)
			cancel()
			continue
		}
		pending[node.Parent]--
		if pending[node.Parent] == 0 {
			submit(node.Parent)
		}
	}

	if firstErr != nil {
		return nil, firstErr
	}
	root, ok := solutions[plan.Root]
	if !ok {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("decomp: root module %q was never solved", plan.Root)
	}

	allOptimal, gapLog, _ := comp.snapshot()
	out := &Outcome{
		Optimal:    allOptimal,
		GapLog:     gapLog,
		Impossible: root.Impossible,
		Solutions:  solutions,
	}
	if !root.Impossible {
		cutSets := make(map[string][]string, len(solutions))
		for id, sol := range solutions {
			cutSets[id] = sol.CutSet
		}
		out.CutSet = plan.Expand(cutSets)
	}
	return out, nil
}
