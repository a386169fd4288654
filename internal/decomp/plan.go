// Package decomp builds the modular decomposition plan of a fault
// tree: its independent Dutuit–Rauzy modules (ft.Modules), each cut
// out as a quotient tree in which every nested module appears as one
// pseudo-basic-event. Because modules share no events, a module can be
// analysed in isolation and re-enter its parent as a single event
// carrying the module's result.
//
// quant.ModularProbability solves the quotients bottom-up with one BDD
// each. The MaxSAT pipeline does not decompose: it always solves the
// whole tree as one instance.
package decomp

import (
	"fmt"
	"sort"

	"mpmcs4fta/internal/ft"
)

// DefaultMinEvents is the smallest module subtree worth a separate
// solve. In a tree-shaped tree every gate is a module, so without a
// floor the plan would degenerate into one quotient per gate.
const DefaultMinEvents = 8

// pseudoProbPlaceholder marks a pseudo-event whose real probability
// arrives only once its module is solved (the caller substitutes it
// via SetProb before solving the parent). Any valid interior
// probability works; solving a node with a placeholder still in place
// is a bug.
const pseudoProbPlaceholder = 0.5

// Options configures planning.
type Options struct {
	// MinEvents is the minimum number of basic events in a module's
	// subtree for it to become its own plan node; smaller modules stay
	// inlined in their parent. Values below 1 select DefaultMinEvents.
	MinEvents int
}

// PlanNode is one sub-solve: a quotient tree rooted at a module gate,
// in which every nested planned module appears as a pseudo-basic-event
// reusing the module gate's id.
type PlanNode struct {
	// Tree is the quotient: the module's own gates and events, with
	// nested planned modules replaced by pseudo-events (their ids are
	// listed in Children). Its top is the module gate; the root node's
	// is the original top. Callers set the pseudo probabilities in
	// place as children complete, so the tree must not be shared.
	Tree *ft.Tree
	// Children are the nested plan nodes, i.e. the pseudo-event ids in
	// Tree, sorted.
	Children []string
}

// Plan is a modular decomposition: a DAG of quotient solves. Leaves
// first, the root (original top) last.
type Plan struct {
	// Nodes maps module gate id to its plan node.
	Nodes map[string]*PlanNode
	// Order lists node ids bottom-up: every node appears after all of
	// its Children, the Root last.
	Order []string
	// Root is the top node's id.
	Root string
}

// BuildPlan computes the decomposition plan of a valid tree. When the
// tree has no proper module meeting opts.MinEvents, the plan is the
// root node alone, holding the whole tree.
func BuildPlan(t *ft.Tree, opts Options) (*Plan, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	minEvents := opts.MinEvents
	if minEvents < 1 {
		minEvents = DefaultMinEvents
	}

	modules, err := t.Modules()
	if err != nil {
		return nil, err
	}

	// Count real events in each module's subtree (shared nodes inside a
	// module counted once).
	subtreeEvents := func(root string) int {
		seen := make(map[string]bool)
		count := 0
		var walk func(id string)
		walk = func(id string) {
			if seen[id] {
				return
			}
			seen[id] = true
			g := t.Gate(id)
			if g == nil {
				count++
				return
			}
			for _, in := range g.Inputs {
				walk(in)
			}
		}
		walk(root)
		return count
	}

	// Select the modules that become plan nodes: the top always, proper
	// modules only when their whole subtree is big enough to pay for a
	// separate solve.
	selected := map[string]bool{t.Top(): true}
	for _, id := range modules {
		if id == t.Top() {
			continue
		}
		if subtreeEvents(id) >= minEvents {
			selected[id] = true
		}
	}

	plan := &Plan{Nodes: make(map[string]*PlanNode), Root: t.Top()}
	// Build quotient nodes from the top down; buildNode recurses into
	// the selected modules it turns into pseudo-events.
	if err := buildNode(t, t.Top(), selected, plan); err != nil {
		return nil, err
	}
	// Bottom-up order by post-order over the child DAG.
	var post func(id string)
	post = func(id string) {
		for _, c := range plan.Nodes[id].Children {
			post(c)
		}
		plan.Order = append(plan.Order, id)
	}
	post(plan.Root)
	return plan, nil
}

// buildNode constructs the quotient tree rooted at the module gate
// root, descending into nested selected modules as separate nodes.
func buildNode(t *ft.Tree, root string, selected map[string]bool, plan *Plan) error {
	node := &PlanNode{Tree: ft.New(t.Name() + "/" + root)}
	plan.Nodes[root] = node

	seen := make(map[string]bool)
	var copyNode func(id string) error
	copyNode = func(id string) error {
		if seen[id] {
			return nil
		}
		seen[id] = true
		if id != root && selected[id] {
			// Nested module: pseudo-event in this quotient, own node in
			// the plan. The gate id is free to reuse as an event id
			// because the gate itself is not copied here.
			node.Children = append(node.Children, id)
			if err := node.Tree.AddEvent(id, pseudoProbPlaceholder); err != nil {
				return err
			}
			return buildNode(t, id, selected, plan)
		}
		if e := t.Event(id); e != nil {
			return node.Tree.AddEventDesc(e.ID, e.Description, e.Prob)
		}
		g := t.Gate(id)
		for _, in := range g.Inputs {
			if err := copyNode(in); err != nil {
				return err
			}
		}
		return node.Tree.AddGate(g.ID, g.Description, g.Type, g.K, g.Inputs...)
	}
	if err := copyNode(root); err != nil {
		return fmt.Errorf("decomp: quotient for module %q: %w", root, err)
	}
	node.Tree.SetTop(root)
	if err := node.Tree.Validate(); err != nil {
		// Modules() guarantees the subtree is self-contained; a failure
		// here means the module contract broke.
		return fmt.Errorf("decomp: quotient for module %q is invalid: %w", root, err)
	}
	sort.Strings(node.Children)
	return nil
}
