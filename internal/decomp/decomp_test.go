package decomp_test

import (
	"strings"
	"testing"

	"mpmcs4fta/internal/decomp"
	"mpmcs4fta/internal/ft"
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

func TestBuildPlanModularTree(t *testing.T) {
	tree := modularTree(t)
	plan, err := decomp.BuildPlan(tree, decomp.Options{MinEvents: 4})
	if err != nil {
		t.Fatal(err)
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
	if got := root.Tree.NumEvents(); got != 3 {
		t.Fatalf("root quotient events = %d, want 3", got)
	}
	for _, child := range []string{"m1", "m2"} {
		n := plan.Nodes[child]
		if n.Tree.NumEvents() != 4 || len(n.Children) != 0 {
			t.Fatalf("node %s = %+v, want 4 events, no children", child, n)
		}
		if n.Tree.Top() != child {
			t.Fatalf("node %s quotient top = %q", child, n.Tree.Top())
		}
	}
	// Bottom-up order: root last, after its children.
	if plan.Order[len(plan.Order)-1] != "top" {
		t.Fatalf("order %v does not end at the root", plan.Order)
	}
}

func TestBuildPlanTrivialWhenModulesTooSmall(t *testing.T) {
	tree := modularTree(t)
	plan, err := decomp.BuildPlan(tree, decomp.Options{MinEvents: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Nodes) != 1 {
		t.Fatalf("plan has %d nodes, want the root alone", len(plan.Nodes))
	}
	// The trivial plan still holds the whole tree at its root.
	if got := plan.Nodes["top"].Tree.NumEvents(); got != 9 {
		t.Fatalf("trivial root events = %d, want 9", got)
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
	if len(plan.Nodes) != 1 {
		t.Fatalf("shared-event tree produced %d plan nodes, want the root alone", len(plan.Nodes))
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
	if got := strings.Join(plan.Nodes["top"].Children, ","); got != "mid" {
		t.Fatalf("top children = %q, want mid", got)
	}
	if got := strings.Join(plan.Nodes["mid"].Children, ","); got != "inner" {
		t.Fatalf("mid children = %q, want inner", got)
	}
	// Order must put inner before mid before top.
	pos := make(map[string]int)
	for i, id := range plan.Order {
		pos[id] = i
	}
	if !(pos["inner"] < pos["mid"] && pos["mid"] < pos["top"]) {
		t.Fatalf("order %v is not bottom-up", plan.Order)
	}

}
