package decomp_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mpmcs4fta/internal/decomp"
	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/obs"
)

// modularTree builds: top = OR(m1, m2, e0) with m1 = AND(e1..e4) and
// m2 = OR(e5..e8) — two proper 4-event modules plus one loose event.
func modularTree(t *testing.T) *ft.Tree {
	t.Helper()
	tree := ft.New("modular")
	// m1's full AND (0.3·0.4·0.5·0.6 = 0.036) beats m2's best single
	// event (0.03) and the loose e0 (0.01), so the global MPMCS crosses
	// a module boundary.
	probs := []float64{0.01, 0.3, 0.4, 0.5, 0.6, 0.01, 0.002, 0.03, 0.004}
	for i, p := range probs {
		if err := tree.AddEvent(eventID(i), p); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(t, tree.AddAnd("m1", "e1", "e2", "e3", "e4"))
	mustAdd(t, tree.AddOr("m2", "e5", "e6", "e7", "e8"))
	mustAdd(t, tree.AddOr("top", "m1", "m2", "e0"))
	tree.SetTop("top")
	return tree
}

func eventID(i int) string { return "e" + string(rune('0'+i)) }

func mustAdd(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// bruteSolve is the oracle Solver: exhaustive max-probability cut set
// over the node's quotient events. With every probability strictly
// inside (0,1), the maximiser is automatically a minimal cut set.
func bruteSolve(_ context.Context, node *decomp.PlanNode) (decomp.ModuleSolution, error) {
	return bruteTree(node.Tree)
}

func bruteTree(tree *ft.Tree) (decomp.ModuleSolution, error) {
	events := tree.Events()
	best := 0.0
	var bestSet []string
	for mask := 1; mask < 1<<len(events); mask++ {
		failed := make(map[string]bool, len(events))
		p := 1.0
		var set []string
		for i, e := range events {
			if mask&(1<<i) != 0 {
				failed[e.ID] = true
				p *= e.Prob
				set = append(set, e.ID)
			}
		}
		if p <= best {
			continue
		}
		ok, err := tree.Eval(failed)
		if err != nil {
			return decomp.ModuleSolution{}, err
		}
		if ok {
			best = p
			bestSet = set
		}
	}
	if len(bestSet) == 0 {
		return decomp.ModuleSolution{Impossible: true}, nil
	}
	sort.Strings(bestSet)
	return decomp.ModuleSolution{CutSet: bestSet, Probability: best, Optimal: true}, nil
}

func TestBuildPlanModularTree(t *testing.T) {
	tree := modularTree(t)
	plan, err := decomp.BuildPlan(tree, decomp.Options{MinEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Trivial() {
		t.Fatal("expected a non-trivial plan")
	}
	if len(plan.Nodes) != 3 {
		t.Fatalf("plan has %d nodes, want 3", len(plan.Nodes))
	}
	root := plan.Nodes["top"]
	if root == nil || plan.Root != "top" {
		t.Fatalf("root = %q, want top", plan.Root)
	}
	if got := strings.Join(root.Children, ","); got != "m1,m2" {
		t.Fatalf("root children = %q, want m1,m2", got)
	}
	// Root quotient: loose event e0 plus two pseudo-events.
	if root.Events != 1 {
		t.Fatalf("root real events = %d, want 1", root.Events)
	}
	for _, child := range []string{"m1", "m2"} {
		n := plan.Nodes[child]
		if n.Events != 4 || len(n.Children) != 0 || n.Parent != "top" {
			t.Fatalf("node %s = %+v, want 4 events, no children, parent top", child, n)
		}
		if n.Tree.Top() != child {
			t.Fatalf("node %s quotient top = %q", child, n.Tree.Top())
		}
	}
	// Bottom-up order: root last, after its children.
	if plan.Order[len(plan.Order)-1] != "top" {
		t.Fatalf("order %v does not end at the root", plan.Order)
	}
	if plan.TotalEvents != 9 {
		t.Fatalf("TotalEvents = %d, want 9", plan.TotalEvents)
	}
}

func TestBuildPlanTrivialWhenModulesTooSmall(t *testing.T) {
	tree := modularTree(t)
	plan, err := decomp.BuildPlan(tree, decomp.Options{MinEvents: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Trivial() {
		t.Fatalf("plan with %d nodes should be trivial", len(plan.Nodes))
	}
	// The trivial plan still holds the whole tree at its root.
	if plan.Nodes["top"].Events != 9 {
		t.Fatalf("trivial root events = %d, want 9", plan.Nodes["top"].Events)
	}
}

func TestBuildPlanSharedEventsStayMonolithic(t *testing.T) {
	// e_shared feeds both gates, so neither is a module; only the top
	// qualifies and the plan is trivial.
	tree := ft.New("shared")
	for _, id := range []string{"a", "b", "c", "d", "shared"} {
		mustAdd(t, tree.AddEvent(id, 0.1))
	}
	mustAdd(t, tree.AddAnd("g1", "a", "b", "shared"))
	mustAdd(t, tree.AddAnd("g2", "c", "d", "shared"))
	mustAdd(t, tree.AddOr("top", "g1", "g2"))
	tree.SetTop("top")
	plan, err := decomp.BuildPlan(tree, decomp.Options{MinEvents: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Trivial() {
		t.Fatalf("shared-event tree produced %d plan nodes, want trivial", len(plan.Nodes))
	}
}

func TestBuildPlanNestedModules(t *testing.T) {
	// inner = AND(i1..i4) nested inside mid = OR(inner, x1..x3), under
	// top = AND(mid, o1..o4): nested plan nodes three deep.
	tree := ft.New("nested")
	for _, id := range []string{"i1", "i2", "i3", "i4", "x1", "x2", "x3", "o1", "o2", "o3", "o4"} {
		mustAdd(t, tree.AddEvent(id, 0.2))
	}
	mustAdd(t, tree.AddAnd("inner", "i1", "i2", "i3", "i4"))
	mustAdd(t, tree.AddOr("mid", "inner", "x1", "x2", "x3"))
	mustAdd(t, tree.AddAnd("top", "mid", "o1", "o2", "o3", "o4"))
	tree.SetTop("top")

	plan, err := decomp.BuildPlan(tree, decomp.Options{MinEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Nodes) != 3 {
		t.Fatalf("plan has %d nodes, want 3 (top, mid, inner)", len(plan.Nodes))
	}
	if got := plan.Nodes["mid"].Parent; got != "top" {
		t.Fatalf("mid parent = %q", got)
	}
	if got := plan.Nodes["inner"].Parent; got != "mid" {
		t.Fatalf("inner parent = %q", got)
	}
	// Order must put inner before mid before top.
	pos := make(map[string]int)
	for i, id := range plan.Order {
		pos[id] = i
	}
	if !(pos["inner"] < pos["mid"] && pos["mid"] < pos["top"]) {
		t.Fatalf("order %v is not bottom-up", plan.Order)
	}

	// Execute with the oracle and compare against brute force on the
	// whole tree.
	out, err := decomp.Execute(context.Background(), plan, bruteSolve, decomp.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := bruteTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, out, want)
}

func checkOutcome(t *testing.T, out *decomp.Outcome, want decomp.ModuleSolution) {
	t.Helper()
	if out.Impossible {
		t.Fatal("outcome impossible, want a cut set")
	}
	if !out.Optimal || out.GapLog != 0 {
		t.Fatalf("outcome not optimal: %+v", out)
	}
	got := strings.Join(out.CutSet, ",")
	if got != strings.Join(want.CutSet, ",") {
		t.Fatalf("cut set = %s, want %s", got, strings.Join(want.CutSet, ","))
	}
}

func TestExecuteMatchesMonolithicOracle(t *testing.T) {
	tree := modularTree(t)
	plan, err := decomp.BuildPlan(tree, decomp.Options{MinEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewEventBus()
	out, err := decomp.Execute(context.Background(), plan, bruteSolve, decomp.ExecOptions{Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	want, err := bruteTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, out, want)

	// Cross-check the composed probability against the expanded set.
	p := 1.0
	for _, id := range out.CutSet {
		p *= tree.Event(id).Prob
	}
	if math.Abs(p-want.Probability) > 1e-12 {
		t.Fatalf("expanded probability %v, want %v", p, want.Probability)
	}

	// Module lifecycle events: one started+finished pair per node.
	started, finished := 0, 0
	for _, ev := range bus.Replay() {
		switch ev.Kind {
		case obs.KindModuleStarted:
			started++
		case obs.KindModuleFinished:
			finished++
		}
	}
	if started != len(plan.Nodes) || finished != len(plan.Nodes) {
		t.Fatalf("module events started=%d finished=%d, want %d each", started, finished, len(plan.Nodes))
	}
}

func TestExecuteImpossibleModule(t *testing.T) {
	// m1 can never occur (p=0 event under an AND); the optimum must
	// come from m2.
	tree := ft.New("impossible-module")
	mustAdd(t, tree.AddEvent("z", 0))
	for _, id := range []string{"a1", "a2", "a3", "b1", "b2", "b3", "b4"} {
		mustAdd(t, tree.AddEvent(id, 0.2))
	}
	mustAdd(t, tree.AddAnd("m1", "z", "a1", "a2", "a3"))
	mustAdd(t, tree.AddAnd("m2", "b1", "b2", "b3", "b4"))
	mustAdd(t, tree.AddOr("top", "m1", "m2"))
	tree.SetTop("top")

	plan, err := decomp.BuildPlan(tree, decomp.Options{MinEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Trivial() {
		t.Fatal("expected a non-trivial plan")
	}
	out, err := decomp.Execute(context.Background(), plan, bruteSolve, decomp.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(out.CutSet, ","); got != "b1,b2,b3,b4" {
		t.Fatalf("cut set = %s, want b1,b2,b3,b4", got)
	}
	if !out.Solutions["m1"].Impossible {
		t.Fatal("m1 should be impossible")
	}
}

func TestExecuteWholeTreeImpossible(t *testing.T) {
	tree := ft.New("impossible")
	mustAdd(t, tree.AddEvent("z", 0))
	for _, id := range []string{"a1", "a2", "a3", "b1", "b2", "b3", "b4"} {
		mustAdd(t, tree.AddEvent(id, 0.2))
	}
	mustAdd(t, tree.AddAnd("m1", "z", "a1", "a2", "a3"))
	mustAdd(t, tree.AddOr("m2", "b1", "b2", "b3", "b4"))
	mustAdd(t, tree.AddAnd("top", "m1", "m2"))
	tree.SetTop("top")

	plan, err := decomp.BuildPlan(tree, decomp.Options{MinEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	out, err := decomp.Execute(context.Background(), plan, bruteSolve, decomp.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Impossible {
		t.Fatalf("outcome = %+v, want impossible", out)
	}
}

func TestExecuteSolverErrorAborts(t *testing.T) {
	tree := modularTree(t)
	plan, err := decomp.BuildPlan(tree, decomp.Options{MinEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("engine exploded")
	var calls atomic.Int32
	solver := func(ctx context.Context, node *decomp.PlanNode) (decomp.ModuleSolution, error) {
		calls.Add(1)
		if node.ID == "m1" {
			return decomp.ModuleSolution{}, boom
		}
		return bruteSolve(ctx, node)
	}
	_, err = decomp.Execute(context.Background(), plan, solver, decomp.ExecOptions{})
	if !errors.Is(err, boom) {
		t.Fatalf("Execute error = %v, want the solver error", err)
	}
	// The root must never have been submitted after the failure.
	if calls.Load() > 2 {
		t.Fatalf("solver ran %d times after abort, want ≤2", calls.Load())
	}
}

func TestExecuteCancellationNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	tree := modularTree(t)
	plan, err := decomp.BuildPlan(tree, decomp.Options{MinEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	solver := func(ctx context.Context, node *decomp.PlanNode) (decomp.ModuleSolution, error) {
		<-ctx.Done() // a solve that only ends when cancelled
		return decomp.ModuleSolution{}, ctx.Err()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := decomp.Execute(ctx, plan, solver, decomp.ExecOptions{}); err == nil {
		t.Fatal("Execute succeeded with a never-finishing solver")
	}

	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestExpandNested(t *testing.T) {
	tree := ft.New("nested")
	for _, id := range []string{"i1", "i2", "i3", "i4", "x1", "x2", "x3", "o1", "o2", "o3", "o4"} {
		mustAdd(t, tree.AddEvent(id, 0.2))
	}
	mustAdd(t, tree.AddAnd("inner", "i1", "i2", "i3", "i4"))
	mustAdd(t, tree.AddOr("mid", "inner", "x1", "x2", "x3"))
	mustAdd(t, tree.AddAnd("top", "mid", "o1", "o2", "o3", "o4"))
	tree.SetTop("top")
	plan, err := decomp.BuildPlan(tree, decomp.Options{MinEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := plan.Expand(map[string][]string{
		"top":   {"mid", "o1", "o2", "o3", "o4"},
		"mid":   {"inner"},
		"inner": {"i1", "i2", "i3", "i4"},
	})
	want := "i1,i2,i3,i4,o1,o2,o3,o4"
	if strings.Join(got, ",") != want {
		t.Fatalf("expanded = %v, want %s", got, want)
	}
}
