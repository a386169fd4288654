package cnf

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mpmcs4fta/internal/boolexpr"
)

// TseitinOptions configures the CNF encoder.
type TseitinOptions struct {
	// PlaistedGreenbaum enables the polarity-aware variant that only
	// emits definition implications in the polarities actually used.
	// It preserves equisatisfiability (and, for our monotone pipeline,
	// the set of projected models onto the input variables that matter)
	// while producing fewer clauses.
	PlaistedGreenbaum bool
	// VarOrder forces the listed input variables to receive DIMACS
	// indices 1..len(VarOrder) in order. Input variables not listed are
	// assigned subsequent indices in first-use order. Auxiliary Tseitin
	// variables always come after all input variables.
	VarOrder []string
}

// Encoding is the result of the Tseitin transformation: a CNF formula
// equisatisfiable with the source expression, with the root asserted as
// a unit clause.
type Encoding struct {
	Formula *Formula
	// VarOf maps each input variable name to its DIMACS index.
	VarOf map[string]int
	// Names maps DIMACS indices back to input names ("" for auxiliary
	// variables); index 0 is unused.
	Names []string
	// Root is the literal representing the whole expression.
	Root Lit
	// NumInputVars is the count of non-auxiliary variables; input
	// variables occupy indices 1..NumInputVars.
	NumInputVars int
}

// Tseitin converts e to CNF in polynomial time (Step 2 of the paper's
// pipeline). Identical subexpressions are hash-consed so DAG-shaped
// fault trees encode in linear size. AtLeast (voting) nodes are encoded
// through a shared threshold network of O(n·k) auxiliary definitions.
func Tseitin(e boolexpr.Expr, opts TseitinOptions) (*Encoding, error) {
	simplified := boolexpr.Simplify(e)

	c := newCircuit()
	for _, name := range opts.VarOrder {
		c.varNode(name)
	}

	enc := &Encoding{Formula: &Formula{}, VarOf: make(map[string]int)}

	if k, ok := simplified.(boolexpr.Const); ok {
		// Degenerate expressions still produce a root variable so the
		// caller's contract (Root asserted) holds uniformly.
		c.reserveInputVars(enc)
		root := enc.Formula.NewVar()
		enc.Names = append(enc.Names, "")
		enc.Root = root
		enc.Formula.AddClause(root)
		if !k.B {
			enc.Formula.AddClause(root.Neg())
		}
		return enc, nil
	}

	rootID, err := c.build(simplified, boolexpr.NewMemo[int](simplified))
	if err != nil {
		return nil, err
	}
	c.reserveInputVars(enc)
	c.emit(enc, rootID, opts.PlaistedGreenbaum)
	return enc, nil
}

// Circuit node operators. Not is folded into literal signs, so only
// variables and monotone gates remain.
const (
	opVar uint8 = iota + 1
	opAnd
	opOr
)

type cnode struct {
	op   uint8
	name string // for opVar
	kids []int  // signed node references (negative = complemented)
}

// circuit is a hash-consed AND/OR DAG over named variables. Node ids
// start at 1; a negative id denotes the complement of the node.
type circuit struct {
	nodes  []cnode
	cache  map[string]int
	varIDs map[string]int
	varSeq []string // variable names in creation order
}

func newCircuit() *circuit {
	return &circuit{
		cache:  make(map[string]int),
		varIDs: make(map[string]int),
	}
}

func (c *circuit) varNode(name string) int {
	if id, ok := c.varIDs[name]; ok {
		return id
	}
	c.nodes = append(c.nodes, cnode{op: opVar, name: name})
	id := len(c.nodes)
	c.varIDs[name] = id
	c.varSeq = append(c.varSeq, name)
	return id
}

// build returns the circuit node of e. Shared gates are built once
// through memo; building one again would add no node (gate hash-conses)
// but would walk it once per path.
func (c *circuit) build(e boolexpr.Expr, memo *boolexpr.Memo[int]) (int, error) {
	id, ok, slot := memo.Get(e)
	if ok {
		return id, nil
	}
	switch x := e.(type) {
	case boolexpr.Var:
		return c.varNode(x.Name), nil
	case boolexpr.Not:
		inner, err := c.build(x.X, memo)
		if err != nil {
			return 0, err
		}
		return -inner, nil
	case boolexpr.And:
		kids, err := c.buildAll(x.Xs, memo)
		if err != nil {
			return 0, err
		}
		id = c.gate(opAnd, kids)
	case boolexpr.Or:
		kids, err := c.buildAll(x.Xs, memo)
		if err != nil {
			return 0, err
		}
		id = c.gate(opOr, kids)
	case boolexpr.AtLeast:
		kids, err := c.buildAll(x.Xs, memo)
		if err != nil {
			return 0, err
		}
		if x.K < 1 || x.K > len(kids) {
			return 0, fmt.Errorf("cnf: atleast threshold %d outside 1..%d", x.K, len(kids))
		}
		id = c.threshold(x.K, kids)
	case boolexpr.Const:
		// Simplify folds constants everywhere (including AtLeast
		// operands), so none can reach the builder.
		return 0, fmt.Errorf("cnf: unexpected constant in simplified expression")
	default:
		return 0, fmt.Errorf("cnf: unknown expression type %T", e)
	}
	memo.Put(slot, id)
	return id, nil
}

func (c *circuit) buildAll(xs []boolexpr.Expr, memo *boolexpr.Memo[int]) ([]int, error) {
	kids := make([]int, len(xs))
	for i, x := range xs {
		id, err := c.build(x, memo)
		if err != nil {
			return nil, err
		}
		kids[i] = id
	}
	return kids, nil
}

// gate hash-conses an AND/OR node over the given signed children with
// canonical ordering, duplicate elimination and single-child collapse.
func (c *circuit) gate(op uint8, kids []int) int {
	sorted := append([]int(nil), kids...)
	sort.Ints(sorted)
	dedup := sorted[:0]
	for i, k := range sorted {
		if i == 0 || k != sorted[i-1] {
			dedup = append(dedup, k)
		}
	}
	if len(dedup) == 1 {
		return dedup[0]
	}
	var key strings.Builder
	key.WriteByte(byte('0' + op))
	for _, k := range dedup {
		key.WriteByte(':')
		key.WriteString(strconv.Itoa(k))
	}
	if id, ok := c.cache[key.String()]; ok {
		return id
	}
	c.nodes = append(c.nodes, cnode{op: op, kids: append([]int(nil), dedup...)})
	id := len(c.nodes)
	c.cache[key.String()] = id
	return id
}

// threshold builds an at-least-k network over the signed children using
// the suffix recursion t(i,j) = (kids[i] ∧ t(i+1,j-1)) ∨ t(i+1,j), with
// And/Or hash-consing providing the O(n·k) sharing.
func (c *circuit) threshold(k int, kids []int) int {
	memo := make(map[[2]int]int, len(kids)*k)
	var t func(i, j int) int
	t = func(i, j int) int {
		rest := len(kids) - i
		switch {
		case j == rest:
			return c.gate(opAnd, kids[i:])
		case j == 1:
			return c.gate(opOr, kids[i:])
		}
		key := [2]int{i, j}
		if id, ok := memo[key]; ok {
			return id
		}
		with := c.gate(opAnd, []int{kids[i], t(i+1, j-1)})
		id := c.gate(opOr, []int{with, t(i+1, j)})
		memo[key] = id
		return id
	}
	return t(0, k)
}

// reserveInputVars assigns DIMACS indices to every circuit variable, in
// circuit creation order (which honours TseitinOptions.VarOrder).
func (c *circuit) reserveInputVars(enc *Encoding) {
	enc.Names = make([]string, 1, len(c.varSeq)+1)
	for _, name := range c.varSeq {
		v := enc.Formula.NewVar()
		enc.VarOf[name] = int(v)
		enc.Names = append(enc.Names, name)
	}
	enc.NumInputVars = len(c.varSeq)
}

// emit assigns auxiliary variables to reachable gate nodes, writes the
// definition clauses (full Tseitin or Plaisted-Greenbaum), and asserts
// the root.
func (c *circuit) emit(enc *Encoding, rootID int, pg bool) {
	nodeLit := make([]Lit, len(c.nodes)+1)
	for name, v := range enc.VarOf {
		nodeLit[c.varIDs[name]] = Lit(v)
	}

	needPos := make([]bool, len(c.nodes)+1)
	needNeg := make([]bool, len(c.nodes)+1)
	var mark func(ref int)
	mark = func(ref int) {
		id := ref
		pos := true
		if id < 0 {
			id, pos = -id, false
		}
		node := &c.nodes[id-1]
		if node.op == opVar {
			return
		}
		if pos {
			if needPos[id] {
				return
			}
			needPos[id] = true
		} else {
			if needNeg[id] {
				return
			}
			needNeg[id] = true
		}
		for _, kid := range node.kids {
			if pos {
				mark(kid)
			} else {
				mark(-kid)
			}
		}
	}
	mark(rootID)

	// Allocate auxiliary variables for every needed gate node, in node
	// order for determinism.
	for id := 1; id <= len(c.nodes); id++ {
		if needPos[id] || needNeg[id] {
			if c.nodes[id-1].op != opVar {
				nodeLit[id] = enc.Formula.NewVar()
				enc.Names = append(enc.Names, "")
			}
		}
	}

	litOf := func(ref int) Lit {
		if ref < 0 {
			return nodeLit[-ref].Neg()
		}
		return nodeLit[ref]
	}

	for id := 1; id <= len(c.nodes); id++ {
		node := &c.nodes[id-1]
		if node.op == opVar || (!needPos[id] && !needNeg[id]) {
			continue
		}
		g := nodeLit[id]
		emitPos := needPos[id] || !pg
		emitNeg := needNeg[id] || !pg
		switch node.op {
		case opAnd:
			if emitPos { // g → kid, for every kid
				for _, kid := range node.kids {
					enc.Formula.AddClause(g.Neg(), litOf(kid))
				}
			}
			if emitNeg { // ¬g → some kid false
				clause := make([]Lit, 0, len(node.kids)+1)
				clause = append(clause, g)
				for _, kid := range node.kids {
					clause = append(clause, litOf(kid).Neg())
				}
				enc.Formula.AddClause(clause...)
			}
		case opOr:
			if emitPos { // g → some kid true
				clause := make([]Lit, 0, len(node.kids)+1)
				clause = append(clause, g.Neg())
				for _, kid := range node.kids {
					clause = append(clause, litOf(kid))
				}
				enc.Formula.AddClause(clause...)
			}
			if emitNeg { // ¬g → kid false, for every kid
				for _, kid := range node.kids {
					enc.Formula.AddClause(g, litOf(kid).Neg())
				}
			}
		}
	}

	enc.Root = litOf(rootID)
	enc.Formula.AddClause(enc.Root)
}
