package sat

import "math"

// clauseRef is an index into the clause arena, replacing *clause
// pointers in watch lists, reasons and the clause databases. Indices
// survive arena growth (unlike pointers into a reallocated slice) and
// let a compacting garbage collector move clauses with a simple
// forwarding scheme.
type clauseRef uint32

// refUndef marks "no clause": a decision or unset reason.
const refUndef clauseRef = ^clauseRef(0)

// Arena clause layout, all words lit-typed for index arithmetic:
//
//	word 0: size<<hdrSizeShift | flags
//	word 1: LBD (learnt clauses), or the forwarding ref once relocated
//	word 2: activity as float32 bits (learnt clauses)
//	word 3..3+size: literals
//
// The uniform 3-word header wastes two words on problem clauses but
// keeps every accessor branch-free.
const (
	hdrWords     = 3
	hdrSizeShift = 4

	flagLearnt  = 1 << 0
	flagDeleted = 1 << 1
	flagReloced = 1 << 2
	// flagTemp marks transient budget-propagator clauses (reasons and
	// conflicts materialised by propagateBudget). They are never
	// attached to watch lists; the solver marks them deleted as soon as
	// they leave the reason table so the GC reclaims them.
	flagTemp = 1 << 3
)

// maxClauseSize keeps size<<hdrSizeShift from overflowing a word.
const maxClauseSize = math.MaxUint32 >> hdrSizeShift

// clauseArena is a flat clause store: one []lit holding headers
// followed by literals. It eliminates per-clause Go allocations (zero
// GC pressure from learning) and pointer-chasing in propagation (clause
// headers and literals are adjacent words).
type clauseArena struct {
	data   []lit
	wasted int // words occupied by deleted clauses, reclaimed by GC
}

// alloc appends a clause and returns its ref. The literals are copied;
// the caller's slice may be reused.
func (a *clauseArena) alloc(lits []lit, flags lit) clauseRef {
	if len(lits) > maxClauseSize || uint64(len(a.data))+hdrWords+uint64(len(lits)) > math.MaxUint32 {
		panic("sat: clause arena exceeds 2^32 words")
	}
	r := clauseRef(len(a.data))
	a.data = append(a.data, lit(len(lits))<<hdrSizeShift|flags, 0, 0)
	a.data = append(a.data, lits...)
	return r
}

func (a *clauseArena) size(r clauseRef) int     { return int(a.data[r] >> hdrSizeShift) }
func (a *clauseArena) learnt(r clauseRef) bool  { return a.data[r]&flagLearnt != 0 }
func (a *clauseArena) deleted(r clauseRef) bool { return a.data[r]&flagDeleted != 0 }
func (a *clauseArena) temp(r clauseRef) bool    { return a.data[r]&flagTemp != 0 }

// lits returns the clause's literal slice, aliasing arena storage. The
// view is invalidated by any alloc (append may move data) and by GC.
func (a *clauseArena) lits(r clauseRef) []lit {
	base := int(r) + hdrWords
	return a.data[base : base+a.size(r) : base+a.size(r)]
}

func (a *clauseArena) lbd(r clauseRef) int       { return int(a.data[r+1]) }
func (a *clauseArena) setLBD(r clauseRef, v int) { a.data[r+1] = lit(v) }

func (a *clauseArena) act(r clauseRef) float32 {
	return math.Float32frombits(uint32(a.data[r+2]))
}
func (a *clauseArena) setAct(r clauseRef, v float32) {
	a.data[r+2] = lit(math.Float32bits(v))
}

// markDeleted flags the clause dead and accounts its words as wasted.
// The storage is reclaimed by the next compacting GC.
func (a *clauseArena) markDeleted(r clauseRef) {
	a.data[r] |= flagDeleted
	a.wasted += hdrWords + a.size(r)
}

// release frees a clause that nothing references any more. A clause at
// the end of the arena is cut off, so its words are reused by the next
// alloc; any other is marked deleted for the next compacting GC.
func (a *clauseArena) release(r clauseRef) {
	if int(r)+hdrWords+a.size(r) == len(a.data) {
		a.data = a.data[:r]
		return
	}
	a.markDeleted(r)
}

// reloc moves the clause at *r into 'to' (unless a previous reloc
// already moved it, in which case the stored forwarding ref is used)
// and rewrites *r. Only live clauses may be relocated; the old arena is
// discarded after a full GC pass, so the forwarding overwrite of the
// LBD word is harmless.
func (a *clauseArena) reloc(r *clauseRef, to *clauseArena) {
	old := *r
	if a.data[old]&flagReloced != 0 {
		*r = clauseRef(a.data[old+1])
		return
	}
	end := int(old) + hdrWords + a.size(old)
	nr := clauseRef(len(to.data))
	to.data = append(to.data, a.data[old:end]...)
	a.data[old] |= flagReloced
	a.data[old+1] = lit(nr)
	*r = nr
}

// words reports the arena footprint in 4-byte words.
func (a *clauseArena) words() int { return len(a.data) }
