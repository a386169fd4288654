package lint

import (
	"go/ast"
	"go/types"
)

// CtxPoll enforces the cancellation invariant on solver engine loops:
// every for loop that can iterate indefinitely (no loop condition) in
// the sat, maxsat and portfolio packages must reach a context poll —
// a ctx.Err()/ctx.Done() check, a call that passes a context.Context
// down (the callee is presumed to honor it), or a call to a function
// in this module whose body provably polls.
//
// This is the exact bug class fixed twice in PR 4: a CDCL search loop
// that polled ctx only on conflicts ignored a 100ms deadline for 74
// seconds on a conflict-free descent. Bounded condition-less loops
// (heap sift-downs, trail walks) are suppressed with an auditable
// //lint:ignore ctxpoll <why the loop is bounded>.
var CtxPoll = &Analyzer{
	Name: "ctxpoll",
	Doc: "condition-less for loops in sat/maxsat/portfolio must reach a " +
		"ctx.Err/ctx.Done poll or a call that provably polls",
	Run: runCtxPoll,
}

func runCtxPoll(pass *Pass) {
	if !pathEndsIn(pass.Pkg.Path, "sat", "maxsat", "portfolio") {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok || loop.Cond != nil {
				return true
			}
			if !reachesPoll(pass.Pkg.Info, loop.Body, pass.Summaries) {
				pass.Reportf(loop.For, "indefinitely iterating loop never polls the context: "+
					"add a ctx.Err()/ctx.Done() check or a call that polls, or annotate why the loop is bounded")
			}
			return true
		})
	}
}

// reachesPoll reports whether the loop body contains a direct context
// poll, a call handing a context down, or a call to a function whose
// summary may poll. Function literals are skipped: defining a closure
// inside the loop does not mean it runs every iteration.
func reachesPoll(info *types.Info, body *ast.BlockStmt, sums *Summaries) bool {
	found := false
	inspectSkippingFuncLits(body, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok && !found {
			found = isDirectCtxPoll(info, call) || passesContext(info, call) ||
				sums.Of(calleeOf(info, call)).MayPoll
		}
	})
	return found
}

// isDirectCtxPoll matches ctx.Err() and ctx.Done() on a
// context.Context value.
func isDirectCtxPoll(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Err" && sel.Sel.Name != "Done") {
		return false
	}
	return isContextType(info.Types[sel.X].Type)
}

// passesContext reports whether the call forwards a context.Context
// argument; such callees are presumed to honor cancellation (the
// engines' Solve(ctx, ...) contract).
func passesContext(info *types.Info, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if tv, ok := info.Types[arg]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	return t != nil && t.String() == "context.Context"
}

// calleeOf resolves the called function or method object, if static.
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// inspectSkippingFuncLits walks the tree in source order but does not
// descend into function literals.
func inspectSkippingFuncLits(root ast.Node, visit func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
