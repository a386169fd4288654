package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FuncSummary is the interprocedural behaviour summary of one declared
// function, computed once per Run over every loaded module package and
// shared by ctxpoll and the second-generation analyzers (arenaref,
// lockorder). Each field is a conservative may-property: false means
// "provably does not", true means "might".
type FuncSummary struct {
	// MayGC: the function may trigger an arena compaction — a call to
	// an arena reloc (directly or transitively). A compaction rewrites
	// clause refs through forwarding pointers; refs held in locals
	// across such a call are stale.
	MayGC bool
	// MayMove: the function may grow an arena (alloc's append can move
	// the backing array) or compact it. Slice views aliasing arena
	// storage are invalid after such a call; refs survive growth but
	// not compaction.
	MayMove bool
	// MayBlock: the function may park its goroutine — a channel
	// send/receive outside a select with a default case, a range over
	// a channel, select without default, sync.WaitGroup.Wait,
	// time.Sleep, or an http.ResponseWriter write (a stuck client can
	// exert backpressure through the response body).
	MayBlock bool
	// Blocks names the first blocking operation that seeded MayBlock,
	// for diagnostics ("channel send", "call to Wait", ...).
	Blocks string
	// MayPoll: the function may poll a context — a ctx.Err()/ctx.Done()
	// check or a call handing a context.Context down (the callee is
	// presumed to honor it), directly or transitively.
	MayPoll bool
	// Acquires lists the mutex classes the function locks itself
	// (Lock/RLock on a sync.Mutex/RWMutex), directly or transitively,
	// keyed by mutexKeyOf.
	Acquires map[string]bool
}

// Summaries indexes FuncSummary by the function's types.Object. The
// zero value is usable and empty (absent callees summarize as "does
// nothing").
type Summaries struct {
	funcs map[types.Object]*FuncSummary
}

// Of returns the summary for a callee object, or the empty summary when
// the callee is unknown (stdlib, dynamic call).
func (s *Summaries) Of(obj types.Object) FuncSummary {
	if s == nil || obj == nil {
		return FuncSummary{}
	}
	if sum, ok := s.funcs[obj]; ok {
		return *sum
	}
	return FuncSummary{}
}

// summarize computes the fixed point of FuncSummary over the static
// call graph of every loaded module package: seed each declared
// function with its directly-observable behaviour, then propagate
// callee properties to callers until nothing changes.
//
// Function literals are deliberately excluded from seeding: defining a
// closure that blocks does not block the definer, and calls through
// closure variables are not statically resolvable anyway — the summary
// is an under-approximation on dynamic calls, which is the right bias
// for analyzers that report violations.
func summarize(all map[string]*Package) *Summaries {
	type declInfo struct {
		decl *ast.FuncDecl
		info *types.Info
	}
	decls := make(map[types.Object]declInfo)
	sums := make(map[types.Object]*FuncSummary)
	for _, pkg := range all {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj := pkg.Info.Defs[fd.Name]
				if obj == nil {
					continue
				}
				decls[obj] = declInfo{decl: fd, info: pkg.Info}
				sums[obj] = seedSummary(pkg.Info, fd.Body)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for obj, di := range decls {
			sum := sums[obj]
			inspectSkippingFuncLits(di.decl.Body, func(n ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				callee := calleeOf(di.info, call)
				if callee == nil || callee == obj {
					return
				}
				cs, ok := sums[callee]
				if !ok {
					return
				}
				if cs.MayGC && !sum.MayGC {
					sum.MayGC, changed = true, true
				}
				if cs.MayMove && !sum.MayMove {
					sum.MayMove, changed = true, true
				}
				if cs.MayPoll && !sum.MayPoll {
					sum.MayPoll, changed = true, true
				}
				if cs.MayBlock && !sum.MayBlock {
					sum.MayBlock, changed = true, true
					sum.Blocks = "call to " + callee.Name() + " (" + cs.Blocks + ")"
				}
				for key := range cs.Acquires {
					if !sum.Acquires[key] {
						if sum.Acquires == nil {
							sum.Acquires = make(map[string]bool)
						}
						sum.Acquires[key], changed = true, true
					}
				}
			})
		}
	}
	return &Summaries{funcs: sums}
}

// seedSummary records the directly-observable behaviour of one body.
func seedSummary(info *types.Info, body *ast.BlockStmt) *FuncSummary {
	sum := &FuncSummary{}
	inspectSkippingFuncLits(body, func(n ast.Node) {
		switch e := n.(type) {
		case *ast.CallExpr:
			if kind, gc := arenaOp(info, e); kind != "" {
				sum.MayMove = true
				if gc {
					sum.MayGC = true
				}
			}
			if isDirectCtxPoll(info, e) || passesContext(info, e) {
				sum.MayPoll = true
			}
			if reason := blockingCall(info, e); reason != "" && !sum.MayBlock {
				sum.MayBlock, sum.Blocks = true, reason
			}
			if key, op, ok := mutexOpKey(info, e); ok && (op == "Lock" || op == "RLock") {
				if sum.Acquires == nil {
					sum.Acquires = make(map[string]bool)
				}
				sum.Acquires[key] = true
			}
		case *ast.SendStmt:
			if !insideNonBlockingSelect(body, e.Pos()) && !sum.MayBlock {
				sum.MayBlock, sum.Blocks = true, "channel send"
			}
		case *ast.UnaryExpr:
			if e.Op.String() == "<-" && !insideNonBlockingSelect(body, e.Pos()) && !sum.MayBlock {
				sum.MayBlock, sum.Blocks = true, "channel receive"
			}
		case *ast.SelectStmt:
			if !selectHasDefault(e) && !sum.MayBlock {
				sum.MayBlock, sum.Blocks = true, "select without default"
			}
		case *ast.RangeStmt:
			if t := info.Types[e.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok && !sum.MayBlock {
					sum.MayBlock, sum.Blocks = true, "range over channel"
				}
			}
		}
	})
	return sum
}

// blockingCall classifies calls that park the goroutine by themselves:
// WaitGroup.Wait, time.Sleep, and writes on an http.ResponseWriter
// (client backpressure).
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	recv := info.Types[sel.X].Type
	switch sel.Sel.Name {
	case "Wait":
		if recv != nil && strings.HasSuffix(recv.String(), "sync.WaitGroup") {
			return "WaitGroup.Wait"
		}
	case "Sleep":
		if obj := info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "time" {
			return "time.Sleep"
		}
	case "Write", "WriteHeader":
		if recv != nil && recv.String() == "net/http.ResponseWriter" {
			return "http response write"
		}
	}
	return ""
}

// insideNonBlockingSelect reports whether pos sits in a CommClause of a
// select statement that has a default case — the non-blocking
// send/receive idiom (obs fan-out).
func insideNonBlockingSelect(root ast.Node, pos token.Pos) bool {
	nonBlocking := false
	ast.Inspect(root, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok || pos < sel.Pos() || pos > sel.End() {
			return true
		}
		// The op must be a comm clause's communication, not a case body:
		// a send in a case BODY blocks like any other send. Comm exprs
		// sit between the case keyword and its colon.
		for _, c := range sel.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil && pos >= cc.Comm.Pos() && pos <= cc.Comm.End() && selectHasDefault(sel) {
				nonBlocking = true
			}
		}
		return true
	})
	return nonBlocking
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// arenaOp classifies calls on an arena-like receiver: a named type
// whose method set includes alloc, lits and reloc (the clause-arena
// shape, matched structurally so goldens and future arenas qualify).
// Returns the operation kind ("alloc" or "reloc") and whether it
// compacts (reloc rewrites refs; alloc only moves storage).
func arenaOp(info *types.Info, call *ast.CallExpr) (kind string, gc bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "alloc", "reloc":
	default:
		return "", false
	}
	if !isArenaType(info.Types[sel.X].Type) {
		return "", false
	}
	return sel.Sel.Name, sel.Sel.Name == "reloc"
}

// isArenaType reports whether t (possibly a pointer) is a named type
// with alloc, lits and reloc methods — the structural signature of a
// compacting arena.
func isArenaType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	var haveAlloc, haveLits, haveReloc bool
	for i := 0; i < named.NumMethods(); i++ {
		switch named.Method(i).Name() {
		case "alloc":
			haveAlloc = true
		case "lits":
			haveLits = true
		case "reloc":
			haveReloc = true
		}
	}
	return haveAlloc && haveLits && haveReloc
}

// mutexOpKey matches <expr>.Lock/Unlock/RLock/RUnlock on a sync.Mutex
// or sync.RWMutex and returns the mutex's class key. Unlike guardedby's
// mutexOp (which keys by the rendered expression for per-function
// tracking), the class key identifies the mutex across functions and
// packages, so acquisition orders observed in different places compose
// into one ordering graph.
func mutexOpKey(info *types.Info, call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	recv := info.Types[sel.X].Type
	if recv == nil || !isMutexType(recv) {
		return "", "", false
	}
	return mutexKeyOf(info, sel.X), sel.Sel.Name, true
}

// mutexKeyOf derives a cross-function identity for a mutex expression:
// for a struct field (x.mu) the owning named type plus field name
// ("obs.EventBus.mu" — every instance of the type shares one lock
// class); for a plain variable, the package-qualified variable name.
// Unresolvable shapes fall back to the rendered expression.
func mutexKeyOf(info *types.Info, x ast.Expr) string {
	switch e := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		if owner := namedRecvType(info.Types[e.X].Type); owner != nil {
			return qualifiedName(owner.Obj()) + "." + e.Sel.Name
		}
		if obj := info.Uses[e.Sel]; obj != nil {
			return qualifiedName(obj)
		}
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return qualifiedName(obj)
		}
	}
	return types.ExprString(x)
}

// namedRecvType strips pointers off t and returns the named type, if
// any.
func namedRecvType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// qualifiedName renders "pkg.Name" with the short package name: stable
// across load roots, readable in findings.
func qualifiedName(obj types.Object) string {
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}
