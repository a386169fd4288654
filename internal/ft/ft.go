// Package ft models static fault trees: basic events carrying failure
// probabilities, combined by AND, OR and K-of-N voting gates up to a top
// event. Trees are DAGs — gates may share inputs — which matches the
// classical fault-tree formalism (Vesely et al., Fault Tree Handbook).
//
// The package is a pure data model plus validation, compilation to
// Boolean formulas (internal/boolexpr), and interchange formats (JSON,
// a compact text format, and Graphviz DOT export).
package ft

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// GateType enumerates the supported gate kinds.
type GateType int

// Supported gate kinds. Voting gates are true when at least K inputs are
// true (the "k-out-of-n" operator listed as future work in the paper).
const (
	GateAnd GateType = iota + 1
	GateOr
	GateVoting
)

// String implements fmt.Stringer.
func (g GateType) String() string {
	switch g {
	case GateAnd:
		return "and"
	case GateOr:
		return "or"
	case GateVoting:
		return "voting"
	default:
		return fmt.Sprintf("GateType(%d)", int(g))
	}
}

// BasicEvent is a leaf of the fault tree: an atomic failure mode with an
// occurrence probability.
type BasicEvent struct {
	ID          string
	Description string
	Prob        float64
}

// Gate is an internal node combining child nodes (events or other gates).
type Gate struct {
	ID          string
	Description string
	Type        GateType
	K           int // threshold; meaningful only for GateVoting
	Inputs      []string
}

// Tree is a fault tree: a set of basic events and gates with a designated
// top event. The zero value is not usable; construct with New.
type Tree struct {
	name   string
	top    string
	events map[string]*BasicEvent
	gates  map[string]*Gate
	order  []string // ids in insertion order, for deterministic iteration
	// valid records a successful Validate; every structural mutator
	// clears it. Atomic because analyses validate one tree from many
	// goroutines.
	valid atomic.Bool
}

// Sentinel errors returned by tree construction and validation.
var (
	ErrDuplicateID  = errors.New("ft: duplicate node id")
	ErrEmptyID      = errors.New("ft: empty node id")
	ErrBadProb      = errors.New("ft: probability outside [0,1]")
	ErrNoInputs     = errors.New("ft: gate has no inputs")
	ErrBadThreshold = errors.New("ft: voting threshold outside 1..len(inputs)")
	ErrUnknownNode  = errors.New("ft: reference to unknown node")
	ErrNoTop        = errors.New("ft: top event not set")
	ErrCycle        = errors.New("ft: tree contains a cycle")
	ErrTopIsEvent   = errors.New("ft: top node must be a gate")
)

// New returns an empty fault tree with the given name.
func New(name string) *Tree {
	return &Tree{
		name:   name,
		events: make(map[string]*BasicEvent),
		gates:  make(map[string]*Gate),
	}
}

// Name returns the tree's name.
func (t *Tree) Name() string { return t.name }

// SetName changes the tree's name.
func (t *Tree) SetName(name string) { t.name = name }

// Top returns the id of the top event ("" if unset).
func (t *Tree) Top() string { return t.top }

// SetTop designates the top node. The node may be added later; Validate
// checks that it exists.
func (t *Tree) SetTop(id string) {
	t.top = id
	t.valid.Store(false)
}

// AddEvent adds a basic event with the given failure probability.
func (t *Tree) AddEvent(id string, prob float64) error {
	return t.AddEventDesc(id, "", prob)
}

// AddEventDesc adds a basic event with a human-readable description.
func (t *Tree) AddEventDesc(id, desc string, prob float64) error {
	return t.addEvent(&BasicEvent{ID: id, Description: desc, Prob: prob})
}

// addEvent checks and stores e, which the tree then owns.
func (t *Tree) addEvent(e *BasicEvent) error {
	if err := t.checkNewID(e.ID); err != nil {
		return err
	}
	if math.IsNaN(e.Prob) || e.Prob < 0 || e.Prob > 1 {
		return fmt.Errorf("%w: event %q has probability %v", ErrBadProb, e.ID, e.Prob)
	}
	t.events[e.ID] = e
	t.order = append(t.order, e.ID)
	t.valid.Store(false)
	return nil
}

// AddAnd adds an AND gate over the given inputs.
func (t *Tree) AddAnd(id string, inputs ...string) error {
	return t.AddGate(id, "", GateAnd, 0, inputs...)
}

// AddOr adds an OR gate over the given inputs.
func (t *Tree) AddOr(id string, inputs ...string) error {
	return t.AddGate(id, "", GateOr, 0, inputs...)
}

// AddVoting adds a K-of-N voting gate: true when at least k inputs are
// true.
func (t *Tree) AddVoting(id string, k int, inputs ...string) error {
	return t.AddGate(id, "", GateVoting, k, inputs...)
}

// AddGate adds a gate of arbitrary type with a description. For
// non-voting gates k is ignored. The tree keeps its own copy of inputs.
func (t *Tree) AddGate(id, desc string, typ GateType, k int, inputs ...string) error {
	return t.addGate(&Gate{ID: id, Description: desc, Type: typ, K: k, Inputs: append([]string(nil), inputs...)})
}

// addGate checks and stores g, which the tree then owns, Inputs
// included.
func (t *Tree) addGate(g *Gate) error {
	if err := t.checkNewID(g.ID); err != nil {
		return err
	}
	if g.Type != GateAnd && g.Type != GateOr && g.Type != GateVoting {
		return fmt.Errorf("ft: gate %q has unknown type %d", g.ID, int(g.Type))
	}
	if len(g.Inputs) == 0 {
		return fmt.Errorf("%w: gate %q", ErrNoInputs, g.ID)
	}
	if g.Type == GateVoting && (g.K < 1 || g.K > len(g.Inputs)) {
		return fmt.Errorf("%w: gate %q has k=%d over %d inputs", ErrBadThreshold, g.ID, g.K, len(g.Inputs))
	}
	if g.Type != GateVoting {
		g.K = 0
	}
	t.gates[g.ID] = g
	t.order = append(t.order, g.ID)
	t.valid.Store(false)
	return nil
}

func (t *Tree) checkNewID(id string) error {
	if id == "" {
		return ErrEmptyID
	}
	if _, ok := t.events[id]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	if _, ok := t.gates[id]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	return nil
}

// Event returns the basic event with the given id, or nil.
func (t *Tree) Event(id string) *BasicEvent { return t.events[id] }

// Gate returns the gate with the given id, or nil.
func (t *Tree) Gate(id string) *Gate { return t.gates[id] }

// HasNode reports whether id names an event or a gate.
func (t *Tree) HasNode(id string) bool {
	if _, ok := t.events[id]; ok {
		return true
	}
	_, ok := t.gates[id]
	return ok
}

// Events returns the basic events in insertion order. The returned slice
// is fresh, but elements point at the tree's nodes.
func (t *Tree) Events() []*BasicEvent {
	out := make([]*BasicEvent, 0, len(t.events))
	for _, id := range t.order {
		if e, ok := t.events[id]; ok {
			out = append(out, e)
		}
	}
	return out
}

// Gates returns the gates in insertion order.
func (t *Tree) Gates() []*Gate {
	out := make([]*Gate, 0, len(t.gates))
	for _, id := range t.order {
		if g, ok := t.gates[id]; ok {
			out = append(out, g)
		}
	}
	return out
}

// NumEvents returns the number of basic events.
func (t *Tree) NumEvents() int { return len(t.events) }

// NumGates returns the number of gates.
func (t *Tree) NumGates() int { return len(t.gates) }

// Probabilities returns a map from event id to failure probability.
func (t *Tree) Probabilities() map[string]float64 {
	out := make(map[string]float64, len(t.events))
	for id, e := range t.events {
		out[id] = e.Prob
	}
	return out
}

// SetProb updates the probability of an existing event.
func (t *Tree) SetProb(id string, prob float64) error {
	e, ok := t.events[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	if math.IsNaN(prob) || prob < 0 || prob > 1 {
		return fmt.Errorf("%w: event %q probability %v", ErrBadProb, id, prob)
	}
	e.Prob = prob
	return nil
}

// Validate checks structural well-formedness: the top node is set, is a
// gate, every gate input references an existing node, and the gate graph
// is acyclic. It returns the first problem found. A success is
// remembered until the next AddEvent, AddGate or SetTop, so repeated
// calls on an unchanged tree are cheap.
func (t *Tree) Validate() error {
	if t.valid.Load() {
		return nil
	}
	if err := t.validate(); err != nil {
		return err
	}
	t.valid.Store(true)
	return nil
}

func (t *Tree) validate() error {
	if t.top == "" {
		return ErrNoTop
	}
	if !t.HasNode(t.top) {
		return fmt.Errorf("%w: top %q", ErrUnknownNode, t.top)
	}
	if _, ok := t.events[t.top]; ok {
		return fmt.Errorf("%w: %q", ErrTopIsEvent, t.top)
	}
	// Gates in insertion order, so the first problem reported is the
	// same on every run.
	for _, id := range t.order {
		g, ok := t.gates[id]
		if !ok {
			continue
		}
		for _, in := range g.Inputs {
			if !t.HasNode(in) {
				return fmt.Errorf("%w: gate %q references %q", ErrUnknownNode, g.ID, in)
			}
		}
	}
	return t.checkAcyclic()
}

func (t *Tree) checkAcyclic() error {
	const (
		inProgress = 1
		done       = 2
	)
	state := make(map[string]uint8, len(t.gates))
	var visit func(id string) error
	visit = func(id string) error {
		g, ok := t.gates[id]
		if !ok {
			return nil // events are always leaves
		}
		switch state[id] {
		case done:
			return nil
		case inProgress:
			return fmt.Errorf("%w: through gate %q", ErrCycle, id)
		}
		state[id] = inProgress
		for _, in := range g.Inputs {
			if err := visit(in); err != nil {
				return err
			}
		}
		state[id] = done
		return nil
	}
	// Start from every gate, in insertion order, so cycles in
	// unreachable islands are caught and the error is deterministic.
	for _, id := range t.order {
		if err := visit(id); err != nil {
			return err
		}
	}
	return nil
}

// Eval computes the top event's truth value given the set of failed
// basic events. Event ids absent from failed are treated as not failed.
// The tree must be valid.
func (t *Tree) Eval(failed map[string]bool) (bool, error) {
	if err := t.Validate(); err != nil {
		return false, err
	}
	memo := make(map[string]bool, len(t.gates))
	return t.evalNode(t.top, failed, memo), nil
}

func (t *Tree) evalNode(id string, failed map[string]bool, memo map[string]bool) bool {
	if e, ok := t.events[id]; ok {
		return failed[e.ID]
	}
	if v, ok := memo[id]; ok {
		return v
	}
	g := t.gates[id]
	var result bool
	switch g.Type {
	case GateAnd:
		result = true
		for _, in := range g.Inputs {
			if !t.evalNode(in, failed, memo) {
				result = false
				break
			}
		}
	case GateOr:
		for _, in := range g.Inputs {
			if t.evalNode(in, failed, memo) {
				result = true
				break
			}
		}
	case GateVoting:
		count := 0
		for _, in := range g.Inputs {
			if t.evalNode(in, failed, memo) {
				count++
			}
		}
		result = count >= g.K
	}
	memo[id] = result
	return result
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	out := New(t.name)
	out.top = t.top
	out.valid.Store(t.valid.Load())
	out.order = append([]string(nil), t.order...)
	for id, e := range t.events {
		copied := *e
		out.events[id] = &copied
	}
	for id, g := range t.gates {
		copied := *g
		copied.Inputs = append([]string(nil), g.Inputs...)
		out.gates[id] = &copied
	}
	return out
}

// Stats summarises a tree's structure.
type Stats struct {
	Events      int
	Gates       int
	AndGates    int
	OrGates     int
	VotingGates int
	Depth       int // longest path from top to a leaf, in nodes
}

// Stats computes structural statistics. Depth is 0 for an invalid tree.
func (t *Tree) Stats() Stats {
	s := Stats{Events: len(t.events), Gates: len(t.gates)}
	for _, g := range t.gates {
		switch g.Type {
		case GateAnd:
			s.AndGates++
		case GateOr:
			s.OrGates++
		case GateVoting:
			s.VotingGates++
		}
	}
	if t.Validate() == nil {
		depths := make(map[string]int, len(t.gates))
		s.Depth = t.depth(t.top, depths)
	}
	return s
}

func (t *Tree) depth(id string, memo map[string]int) int {
	if _, ok := t.events[id]; ok {
		return 1
	}
	if d, ok := memo[id]; ok {
		return d
	}
	deepest := 0
	for _, in := range t.gates[id].Inputs {
		if d := t.depth(in, memo); d > deepest {
			deepest = d
		}
	}
	memo[id] = deepest + 1
	return deepest + 1
}
