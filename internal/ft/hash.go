package ft

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"strconv"
)

// CanonicalHash returns a content address for the tree's analysis
// semantics: two trees hash equal exactly when every MPMCS-style query
// (Analyze, AnalyzeTopK, the quantitative measures) is guaranteed the
// same answer on both. It is the cache key of the mpmcsd solution
// cache, so the invariances are deliberately conservative:
//
//   - Gate ids and descriptions are normalized away: internal nodes are
//     identified purely by their position in the canonical structure,
//     so renaming a gate does not change the hash. (Gate ids never
//     appear in a Solution document.)
//   - Child order is irrelevant: a gate's inputs are hashed as a sorted
//     multiset, so permuting inputs does not change the hash.
//   - Only the sub-DAG reachable from the top event contributes:
//     disconnected islands cannot influence any analysis.
//   - The tree's name is excluded — it is presentation, not semantics.
//
// Everything that can influence an answer document is included: the
// gate types and voting thresholds along each path, and for every
// reachable basic event its id, description and the exact bit pattern
// of its probability (Solution documents carry all three).
//
// The hash is a SHA-256 Merkle digest over the reachable DAG, so
// shared subtrees are hashed once and the cost is linear in the number
// of reachable nodes. The returned string is "sha256:<hex>". The tree
// must validate.
func CanonicalHash(t *Tree) (string, error) {
	if err := t.Validate(); err != nil {
		return "", err
	}
	h := treeHasher{t: t, memo: make(map[string][sha256.Size]byte, len(t.gates)+len(t.events))}
	root := h.node(t.top)
	sum := sha256.Sum256(append(append(h.buf[:0], "mpmcs4fta-tree-v1\x00"...), root[:]...))
	var out [len("sha256:") + 2*sha256.Size]byte
	copy(out[:], "sha256:")
	hex.Encode(out[len("sha256:"):], sum[:])
	return string(out[:]), nil
}

// treeHasher computes the Merkle digests of one tree. Its byte buffer
// and child-digest stack are reused across nodes, so a node costs no
// allocation beyond its memo entry.
type treeHasher struct {
	t     *Tree
	memo  map[string][sha256.Size]byte
	buf   []byte              // the preimage of the node being hashed
	stack [][sha256.Size]byte // child digests of the gates on the path
}

// node computes the Merkle digest of one node. Events hash their
// identity and probability bits; gates hash their type, threshold and
// the sorted child digests. The tree is validated, so every id resolves
// and the recursion terminates (no cycles).
func (h *treeHasher) node(id string) [sha256.Size]byte {
	if sum, ok := h.memo[id]; ok {
		return sum
	}
	buf := h.buf[:0]
	if e, ok := h.t.events[id]; ok {
		buf = append(buf, "event\x00"...)
		buf = appendLenPrefixed(buf, e.ID)
		buf = appendLenPrefixed(buf, e.Description)
		buf = binary.BigEndian.AppendUint64(buf, probBits(e.Prob))
	} else {
		g := h.t.gates[id]
		base := len(h.stack)
		for _, in := range g.Inputs {
			child := h.node(in)
			h.stack = append(h.stack, child)
		}
		children := h.stack[base:]
		slices.SortFunc(children, func(a, b [sha256.Size]byte) int { return bytes.Compare(a[:], b[:]) })
		// The children reused h.buf, so the preimage starts only now.
		buf = append(h.buf[:0], "gate\x00"...)
		for _, n := range [...]int{int(g.Type), g.K, len(g.Inputs)} {
			buf = strconv.AppendInt(buf, int64(n), 10)
			buf = append(buf, 0)
		}
		for _, c := range children {
			buf = append(buf, c[:]...)
		}
		h.stack = h.stack[:base]
	}
	h.buf = buf
	sum := sha256.Sum256(buf)
	h.memo[id] = sum
	return sum
}

// appendLenPrefixed appends a length-prefixed string so concatenated
// fields cannot alias each other ("ab"+"c" vs "a"+"bc").
func appendLenPrefixed(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(s)))
	return append(buf, s...)
}

// probBits canonicalizes a probability to its IEEE-754 bit pattern.
// Validation rejects NaN and values outside [0,1]; negative zero is
// folded into +0 so the two representations of p=0 hash equal.
func probBits(p float64) uint64 {
	bits := math.Float64bits(p)
	if bits == math.Float64bits(math.Copysign(0, -1)) {
		bits = 0
	}
	return bits
}
