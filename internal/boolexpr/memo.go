package boolexpr

// A fault tree's formula is a DAG: internal/ft builds each gate once, so
// a gate with several parents is one Go value reached along several
// paths. A walk that recurses into every operand visits such a gate
// once per path, which is exponential in the depth of nested sharing.
// Memo lets a walk visit each shared gate once.

// gateShape is a gate's kind, threshold and operand count.
type gateShape struct {
	op   byte // 'a' And, 'o' Or, 'k' AtLeast
	k, n int
}

// gateKey identifies a gate by its first operand slot and its shape:
// gates with the same shape over the same operand slice are the same
// function, so a walk may reuse one's result for the other. An And and
// an Or over one slice, as ExpandAtLeast builds, are two keys.
type gateKey struct {
	first *Expr
	shape gateShape
}

// keyOf returns e's key and operands; xs is empty for variables,
// negations, constants and gates without operands.
func keyOf(e Expr) (key gateKey, xs []Expr) {
	switch x := e.(type) {
	case And:
		key.shape, xs = gateShape{op: 'a'}, x.Xs
	case Or:
		key.shape, xs = gateShape{op: 'o'}, x.Xs
	case AtLeast:
		key.shape, xs = gateShape{op: 'k', k: x.K}, x.Xs
	}
	if len(xs) > 0 {
		key.first, key.shape.n = &xs[0], len(xs)
	}
	return key, xs
}

// Memo caches a walk's results for the gates of one expression that
// are reachable along more than one path. Gates reached once are not
// cached: their results would only hold memory (a deep chain's
// flattened operand lists) without ever being reused. A nil *Memo,
// which NewMemo returns for an expression without shared gates,
// caches nothing.
type Memo[T any] struct {
	index   map[gateKey]int32 // gate → gates index
	gates   []gateCount
	results []T // by gates index, for the shared gates already walked
}

type gateCount struct {
	paths int
	done  bool // results holds the walk's result
}

// NewMemo counts the paths into the gates of e, visiting each gate
// once.
func NewMemo[T any](e Expr) *Memo[T] {
	m := &Memo[T]{index: make(map[gateKey]int32)}
	anyShared := false
	var visit func(e Expr)
	visit = func(e Expr) {
		if n, ok := e.(Not); ok {
			visit(n.X)
			return
		}
		key, xs := keyOf(e)
		if len(xs) == 0 {
			return
		}
		if i, seen := m.index[key]; seen {
			m.gates[i].paths++
			anyShared = true
			return
		}
		m.index[key] = int32(len(m.gates))
		m.gates = append(m.gates, gateCount{paths: 1})
		for _, x := range xs {
			visit(x)
		}
	}
	visit(e)
	if !anyShared {
		return nil
	}
	m.results = make([]T, len(m.gates))
	return m
}

// cached returns e's gates index if e is a gate Memo caches.
func (m *Memo[T]) cached(e Expr) (int32, bool) {
	if m == nil {
		return -1, false
	}
	key, xs := keyOf(e)
	if len(xs) == 0 {
		return -1, false
	}
	i, counted := m.index[key]
	if !counted || m.gates[i].paths < 2 {
		return -1, false
	}
	return i, true
}

// Shared reports whether e is a gate that Memo caches.
func (m *Memo[T]) Shared(e Expr) bool {
	_, ok := m.cached(e)
	return ok
}

// Get returns e's recorded result, if any. Otherwise slot is where Put
// records the walk's result for e: -1 unless e is a shared gate.
func (m *Memo[T]) Get(e Expr) (v T, ok bool, slot int32) {
	i, cached := m.cached(e)
	switch {
	case !cached:
		return v, false, -1
	case m.gates[i].done:
		return m.results[i], true, -1
	}
	return v, false, i
}

// Put records v as the result of the gate Get returned slot for; slot
// -1 records nothing.
func (m *Memo[T]) Put(slot int32, v T) {
	if slot < 0 {
		return
	}
	m.gates[slot].done = true
	m.results[slot] = v
}
