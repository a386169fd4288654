package lint

import (
	"go/ast"
	"go/types"
)

// ExactlyOnce enforces the result-delivery contract between a solve
// and its consumer in the serve handlers. An admitted solve holds one
// of the server's analysis slots until it has delivered its result. A
// solve that sends its result on an unbuffered channel after the
// consumer has given up (client disconnect, context expiry) is stuck
// forever, still holding its slot; every stuck slot holder shrinks
// the server's capacity for every later request, and Close waits on
// it. The two safe shapes, both used by the shipped code, are:
//
//   - send on a channel provably buffered for every send it receives
//     (make(chan T, 1) per solve, or make(chan T, len(items)) for a
//     fan-in) — the send completes regardless of the consumer;
//   - send inside a select that also watches ctx.Done() (or has a
//     default), so abandonment cancels the send.
//
// Every other send statement in serve is a finding. Buffering is
// resolved through closure boundaries: a channel made in the enclosing
// function and sent on inside a goroutine's closure counts, because
// the make and the send share one variable.
var ExactlyOnce = &Analyzer{
	Name: "exactlyonce",
	Doc: "sends in serve must use a provably-buffered channel or " +
		"a select with ctx.Done()/default, so an abandoned consumer cannot leave a solve stuck holding its slot",
	Run: runExactlyOnce,
}

func runExactlyOnce(pass *Pass) {
	if !pathEndsIn(pass.Pkg.Path, "serve") {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			buffered := bufferedChans(info, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				send, ok := n.(*ast.SendStmt)
				if !ok {
					return true
				}
				if id, ok := ast.Unparen(send.Chan).(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil && buffered[obj] {
						return true
					}
				}
				if inGuardedSelect(info, fd.Body, send) {
					return true
				}
				pass.Reportf(send.Pos(), "naked send: the channel is not provably buffered and the send "+
					"is not in a select with ctx.Done() or default; an abandoned consumer leaves "+
					"the sender stuck forever (a solve stuck holding its analysis slot)")
				return true
			})
		}
	}
}

// bufferedChans collects the channel variables the function (closures
// included — they share scope) creates with a provably non-zero
// capacity: a constant > 0, or a len()/cap() call sizing the buffer to
// the fan-in.
func bufferedChans(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	buffered := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			id, ok := assign.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil {
				continue
			}
			if chanCapNonZero(info, rhs) {
				buffered[obj] = true
			}
		}
		return true
	})
	return buffered
}

// chanCapNonZero reports whether rhs is make(chan T, cap) with a
// provably non-zero capacity.
func chanCapNonZero(info *types.Info, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fun.Name != "make" || info.Uses[fun] != types.Universe.Lookup("make") {
		return false
	}
	if _, isChan := info.Types[call.Args[0]].Type.Underlying().(*types.Chan); !isChan {
		return false
	}
	capArg := call.Args[1]
	if tv, ok := info.Types[capArg]; ok && tv.Value != nil {
		// Constant capacity: non-zero means buffered.
		return tv.Value.String() != "0"
	}
	// len(x)/cap(x): the fan-in idiom — one slot per producer.
	if capCall, ok := ast.Unparen(capArg).(*ast.CallExpr); ok {
		if fn, ok := ast.Unparen(capCall.Fun).(*ast.Ident); ok && (fn.Name == "len" || fn.Name == "cap") {
			return info.Uses[fn] == types.Universe.Lookup(fn.Name)
		}
	}
	return false
}

// inGuardedSelect reports whether the send is the communication of a
// select case whose siblings include a ctx.Done() receive or a default
// clause — the cancellable-send idiom.
func inGuardedSelect(info *types.Info, root ast.Node, send *ast.SendStmt) bool {
	guarded := false
	ast.Inspect(root, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		isComm := false
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == send {
				isComm = true
			}
		}
		if !isComm {
			return true
		}
		if selectHasDefault(sel) || selectWatchesDone(info, sel) {
			guarded = true
		}
		return true
	})
	return guarded
}

// selectWatchesDone reports whether any comm clause of the select
// receives from a context's Done channel.
func selectWatchesDone(info *types.Info, sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		found := false
		ast.Inspect(cc.Comm, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if s, ok := call.Fun.(*ast.SelectorExpr); ok && s.Sel.Name == "Done" && isContextType(info.Types[s.X].Type) {
					found = true
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}
