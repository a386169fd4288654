// Package bdd implements reduced ordered binary decision diagrams
// (ROBDDs) with an accompanying zero-suppressed layer (ZDDs) for cut-set
// families. It provides the BDD-based baseline the paper names as future
// work: exact top-event probability, Rauzy-style minimal cut set
// extraction, and maximum-probability cut-set selection by dynamic
// programming over the cut-set family.
//
// BDD sizes are exponential in the worst case; SetNodeLimit installs a
// budget after which the guarded entry points (FromExpr, Restrict,
// MinimalCutSets) abort with ErrNodeLimit instead of exhausting memory.
package bdd

import (
	"errors"
	"fmt"
	"math"

	"mpmcs4fta/internal/boolexpr"
)

// ErrNodeLimit is returned by guarded operations when the manager's
// node budget (SetNodeLimit) is exhausted.
var ErrNodeLimit = errors.New("bdd: node limit exceeded")

// DefaultNodeLimit is the budget the higher-level analyses install: it
// keeps worst-case memory in the hundreds of megabytes while leaving
// realistic fault trees far below the ceiling.
const DefaultNodeLimit = 2 << 20

// nodeLimitPanic is the internal signal converted to ErrNodeLimit at
// the package boundary.
type nodeLimitPanic struct{}

// Ref identifies a BDD node within a Manager. The terminals False and
// True are shared by all managers.
type Ref int32

// Terminal nodes.
const (
	False Ref = 0
	True  Ref = 1
)

type node struct {
	level  int32 // variable order position; terminals use maxLevel
	lo, hi Ref
}

const maxLevel = int32(1<<30 - 1)

type triple struct {
	level  int32
	lo, hi Ref
}

type iteKey struct{ f, g, h Ref }

// Manager owns BDD (and ZDD) nodes over a fixed variable order.
// Managers are not safe for concurrent use.
type Manager struct {
	order    []string
	varIndex map[string]int

	nodes  []node
	unique map[triple]Ref
	ite    map[iteKey]Ref

	// ZDD state (see zdd.go).
	znodes  []node
	zunique map[triple]ZRef
	zcache  map[zopKey]ZRef

	// nodeLimit bounds len(nodes)+len(znodes); 0 means unlimited.
	nodeLimit int
}

// SetNodeLimit installs a budget on the total number of BDD+ZDD nodes.
// When exceeded, guarded operations return ErrNodeLimit. Zero removes
// the limit.
func (m *Manager) SetNodeLimit(limit int) { m.nodeLimit = limit }

func (m *Manager) checkLimit() {
	if m.nodeLimit > 0 && len(m.nodes)+len(m.znodes) > m.nodeLimit {
		panic(nodeLimitPanic{})
	}
}

// guard converts a nodeLimitPanic escaping fn into ErrNodeLimit.
func guard(err *error) {
	if r := recover(); r != nil {
		if _, ok := r.(nodeLimitPanic); ok {
			*err = ErrNodeLimit
			return
		}
		panic(r)
	}
}

// NewManager creates a manager with the given variable order (first
// element = topmost decision variable).
func NewManager(order []string) (*Manager, error) {
	m := &Manager{
		order:    append([]string(nil), order...),
		varIndex: make(map[string]int, len(order)),
		unique:   make(map[triple]Ref),
		ite:      make(map[iteKey]Ref),
		zunique:  make(map[triple]ZRef),
		zcache:   make(map[zopKey]ZRef),
	}
	for i, name := range order {
		if _, dup := m.varIndex[name]; dup {
			return nil, fmt.Errorf("bdd: duplicate variable %q in order", name)
		}
		m.varIndex[name] = i
	}
	// Slots 0 and 1 are the terminals for both node spaces.
	m.nodes = []node{{level: maxLevel}, {level: maxLevel}}
	m.znodes = []node{{level: maxLevel}, {level: maxLevel}}
	return m, nil
}

// Order returns the variable order.
func (m *Manager) Order() []string { return append([]string(nil), m.order...) }

// NumNodes returns the total number of allocated BDD nodes, including
// the two terminals.
func (m *Manager) NumNodes() int { return len(m.nodes) }

// Var returns the BDD for the given variable.
func (m *Manager) Var(name string) (Ref, error) {
	idx, ok := m.varIndex[name]
	if !ok {
		return False, fmt.Errorf("bdd: variable %q not in order", name)
	}
	return m.mk(int32(idx), False, True), nil
}

// mk returns the canonical node (level, lo, hi), applying the reduction
// rule lo==hi and hash-consing.
func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	key := triple{level: level, lo: lo, hi: hi}
	if ref, ok := m.unique[key]; ok {
		return ref
	}
	m.checkLimit()
	m.nodes = append(m.nodes, node{level: level, lo: lo, hi: hi})
	ref := Ref(len(m.nodes) - 1)
	m.unique[key] = ref
	return ref
}

// ITE computes if-then-else(f, g, h), the universal ternary operator.
func (m *Manager) ITE(f, g, h Ref) Ref {
	// Terminal cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	key := iteKey{f: f, g: g, h: h}
	if ref, ok := m.ite[key]; ok {
		return ref
	}
	level := m.nodes[f].level
	if l := m.nodes[g].level; l < level {
		level = l
	}
	if l := m.nodes[h].level; l < level {
		level = l
	}
	fl, fh := m.cofactors(f, level)
	gl, gh := m.cofactors(g, level)
	hl, hh := m.cofactors(h, level)
	lo := m.ITE(fl, gl, hl)
	hi := m.ITE(fh, gh, hh)
	ref := m.mk(level, lo, hi)
	m.ite[key] = ref
	return ref
}

func (m *Manager) cofactors(f Ref, level int32) (lo, hi Ref) {
	n := m.nodes[f]
	if n.level != level {
		return f, f
	}
	return n.lo, n.hi
}

// Not returns ¬f.
func (m *Manager) Not(f Ref) Ref { return m.ITE(f, False, True) }

// And returns the conjunction of the given functions.
func (m *Manager) And(fs ...Ref) Ref {
	out := True
	for _, f := range fs {
		out = m.ITE(out, f, False)
	}
	return out
}

// Or returns the disjunction of the given functions.
func (m *Manager) Or(fs ...Ref) Ref {
	out := False
	for _, f := range fs {
		out = m.ITE(out, True, f)
	}
	return out
}

// AtLeast returns the function "at least k of fs are true".
func (m *Manager) AtLeast(k int, fs []Ref) Ref {
	type key struct{ i, j int }
	memo := make(map[key]Ref)
	var t func(i, j int) Ref
	t = func(i, j int) Ref {
		rest := len(fs) - i
		switch {
		case j <= 0:
			return True
		case j > rest:
			return False
		}
		kk := key{i, j}
		if r, ok := memo[kk]; ok {
			return r
		}
		with := m.ITE(fs[i], t(i+1, j-1), False)
		without := t(i+1, j)
		r := m.Or(with, without)
		memo[kk] = r
		return r
	}
	return t(0, k)
}

// Compile builds a manager over order with DefaultNodeLimit installed
// and compiles f in it: the one way the analysis packages turn a tree's
// formula into a BDD. It returns ErrNodeLimit when the budget is
// exhausted.
func Compile(order []string, f boolexpr.Expr) (*Manager, Ref, error) {
	m, err := NewManager(order)
	if err != nil {
		return nil, False, err
	}
	m.SetNodeLimit(DefaultNodeLimit)
	ref, err := m.FromExpr(f)
	if err != nil {
		return nil, False, err
	}
	return m, ref, nil
}

// FromExpr compiles a Boolean expression. Every variable must be present
// in the manager's order. It returns ErrNodeLimit when the node budget
// is exhausted.
func (m *Manager) FromExpr(e boolexpr.Expr) (ref Ref, err error) {
	defer guard(&err)
	return m.fromExpr(e, boolexpr.NewMemo[Ref](e))
}

func (m *Manager) fromExpr(e boolexpr.Expr, memo *boolexpr.Memo[Ref]) (Ref, error) {
	out, ok, slot := memo.Get(e)
	if ok {
		return out, nil
	}
	switch x := e.(type) {
	case boolexpr.Var:
		return m.Var(x.Name)
	case boolexpr.Not:
		inner, err := m.fromExpr(x.X, memo)
		if err != nil {
			return False, err
		}
		return m.Not(inner), nil
	case boolexpr.And:
		out = True
		for _, c := range x.Xs {
			f, err := m.fromExpr(c, memo)
			if err != nil {
				return False, err
			}
			out = m.And(out, f)
		}
	case boolexpr.Or:
		out = False
		for _, c := range x.Xs {
			f, err := m.fromExpr(c, memo)
			if err != nil {
				return False, err
			}
			out = m.Or(out, f)
		}
	case boolexpr.AtLeast:
		fs := make([]Ref, len(x.Xs))
		for i, c := range x.Xs {
			f, err := m.fromExpr(c, memo)
			if err != nil {
				return False, err
			}
			fs[i] = f
		}
		out = m.AtLeast(x.K, fs)
	case boolexpr.Const:
		if x.B {
			return True, nil
		}
		return False, nil
	default:
		return False, fmt.Errorf("bdd: unknown expression type %T", e)
	}
	memo.Put(slot, out)
	return out, nil
}

// Eval evaluates f under the assignment (missing variables read false).
func (m *Manager) Eval(f Ref, assign map[string]bool) bool {
	for f != True && f != False {
		n := m.nodes[f]
		if assign[m.order[n.level]] {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == True
}

// Restrict fixes variable name to value in f.
func (m *Manager) Restrict(f Ref, name string, value bool) (Ref, error) {
	idx, ok := m.varIndex[name]
	if !ok {
		return False, fmt.Errorf("bdd: variable %q not in order", name)
	}
	memo := make(map[Ref]Ref)
	var walk func(Ref) Ref
	walk = func(g Ref) Ref {
		if g == True || g == False {
			return g
		}
		n := m.nodes[g]
		if n.level > int32(idx) {
			return g
		}
		if r, ok := memo[g]; ok {
			return r
		}
		var out Ref
		if n.level == int32(idx) {
			if value {
				out = n.hi
			} else {
				out = n.lo
			}
		} else {
			out = m.mk(n.level, walk(n.lo), walk(n.hi))
		}
		memo[g] = out
		return out
	}
	return walk(f), nil
}

// Probability computes P[f = true] when each variable is independently
// true with the given probability (Shannon expansion with memoisation).
// Variables missing from probs default to probability 0.
func (m *Manager) Probability(f Ref, probs map[string]float64) float64 {
	memo := make(map[Ref]float64)
	var walk func(Ref) float64
	walk = func(g Ref) float64 {
		switch g {
		case True:
			return 1
		case False:
			return 0
		}
		if p, ok := memo[g]; ok {
			return p
		}
		n := m.nodes[g]
		p := probs[m.order[n.level]]
		out := p*walk(n.hi) + (1-p)*walk(n.lo)
		memo[g] = out
		return out
	}
	return walk(f)
}

// CountNodes returns the number of nodes reachable from f, excluding
// terminals.
func (m *Manager) CountNodes(f Ref) int {
	seen := make(map[Ref]bool)
	var walk func(Ref)
	walk = func(g Ref) {
		if g == True || g == False || seen[g] {
			return
		}
		seen[g] = true
		walk(m.nodes[g].lo)
		walk(m.nodes[g].hi)
	}
	walk(f)
	return len(seen)
}

// SatCount returns the number of satisfying assignments of f over the
// manager's full variable set.
func (m *Manager) SatCount(f Ref) float64 {
	memo := make(map[Ref]float64)
	var walk func(g Ref, level int32) float64
	walk = func(g Ref, level int32) float64 {
		nLevel := m.nodes[g].level
		if g == True || g == False {
			nLevel = int32(len(m.order))
		}
		scale := math.Pow(2, float64(nLevel-level))
		switch g {
		case True:
			return scale
		case False:
			return 0
		}
		if c, ok := memo[g]; ok {
			return c * scale
		}
		n := m.nodes[g]
		count := walk(n.lo, n.level+1) + walk(n.hi, n.level+1)
		memo[g] = count
		return count * scale
	}
	return walk(f, 0)
}
