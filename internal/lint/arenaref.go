package lint

import (
	"go/ast"
	"go/types"
)

// ArenaRef enforces the clause-arena lifetime rules from
// internal/sat/arena.go:
//
//   - a ref obtained from alloc is stale after any call that may
//     compact the arena (reloc rewrites live refs through forwarding
//     pointers, but only the refs the GC can reach — watch lists,
//     reasons, clause databases — never locals);
//   - a literal-slice view obtained from lits aliases arena storage and
//     is stale after any call that may grow OR compact the arena
//     (alloc's append can move the backing array).
//
// Whether a call invalidates is decided interprocedurally via the
// function-summary pass (MayGC / MayMove), so a ref held across an
// innocuous helper is fine while one held across reduceDB — which ends
// in maybeGC — is a finding. This is exactly the stale-reference class
// the PR 7 compacting GC made possible; it corrupts clauses silently
// (the ref indexes into reclaimed or rewritten storage) rather than
// crashing.
//
// The scan is per-function and source-order, the guardedby compromise:
// no path sensitivity, zero false positives on straight-line solver
// code. Obtaining a fresh ref/view after the invalidating call clears
// the taint.
var ArenaRef = &Analyzer{
	Name: "arenaref",
	Doc: "an arena clauseRef or lits() view obtained before a may-GC " +
		"(or, for views, may-alloc) call must not be used after it",
	Run: runArenaRef,
}

func runArenaRef(pass *Pass) {
	if !pathEndsIn(pass.Pkg.Path, "sat", "arena") {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkArenaLifetimes(pass, fd)
		}
	}
}

// arenaTaint is the per-variable lifetime state.
type arenaTaint struct {
	kind string // "ref" or "view"
	// src is the alloc/lits call the value came from. The walk visits
	// the assignment before its RHS call, so without this the value's
	// own source alloc would immediately invalidate it.
	src      *ast.CallExpr
	stale    bool   // an invalidating call happened since it was obtained
	staleBy  string // what invalidated it, for the finding message
	reported bool   // one finding per variable per staleness
}

// checkArenaLifetimes walks one function in source order, tracking
// locals bound to alloc results (refs) and lits results (views),
// marking them stale at invalidating calls, and reporting subsequent
// uses.
func checkArenaLifetimes(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	taints := make(map[types.Object]*arenaTaint)
	inspectSkippingFuncLits(fd.Body, func(n ast.Node) {
		switch e := n.(type) {
		case *ast.AssignStmt:
			// A (re)assignment from alloc/lits makes the variable fresh;
			// any other reassignment drops the tracking (the value is no
			// longer an arena alias).
			for i, lhs := range e.Lhs {
				id, ok := lhs.(*ast.Ident)
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
				// Arena ops are single-valued, so a multi-value assignment
				// (x, y := f()) can only clear the tracking.
				if len(e.Rhs) == len(e.Lhs) {
					if kind := arenaSource(info, e.Rhs[i]); kind != "" {
						call := ast.Unparen(e.Rhs[i]).(*ast.CallExpr)
						taints[obj] = &arenaTaint{kind: kind, src: call}
						continue
					}
				}
				delete(taints, obj)
			}
		case *ast.CallExpr:
			kind, gc := arenaOp(info, e)
			sum := FuncSummary{}
			if callee := calleeOf(info, e); callee != nil {
				sum = pass.Summaries.Of(callee)
			}
			mayGC := gc || sum.MayGC
			mayMove := kind != "" || sum.MayMove
			if !mayGC && !mayMove {
				return
			}
			by := describeInvalidator(info, e, mayGC)
			for _, t := range taints {
				if t.stale || t.src == e {
					continue
				}
				if mayGC || t.kind == "view" {
					t.stale, t.staleBy = true, by
				}
			}
		case *ast.Ident:
			obj := info.Uses[e]
			if obj == nil {
				return
			}
			t, ok := taints[obj]
			if !ok || !t.stale || t.reported {
				return
			}
			t.reported = true
			what := "arena ref"
			rule := "a compaction rewrites refs through forwarding pointers and never updates locals"
			if t.kind == "view" {
				what = "lits() view"
				rule = "the view aliases arena storage, which the call may have moved or reclaimed"
			}
			pass.Reportf(e.Pos(), "%s %s is stale: it was obtained before %s, and %s; "+
				"re-fetch it after the call", what, e.Name, t.staleBy, rule)
		}
	})
}

// arenaSource classifies an assignment RHS: "ref" for an arena alloc
// call, "view" for an arena lits call, "" otherwise.
func arenaSource(info *types.Info, rhs ast.Expr) string {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if !isArenaType(info.Types[sel.X].Type) {
		return ""
	}
	switch sel.Sel.Name {
	case "alloc":
		return "ref"
	case "lits":
		return "view"
	}
	return ""
}

// describeInvalidator renders the invalidating call for the finding.
func describeInvalidator(info *types.Info, call *ast.CallExpr, gc bool) string {
	name := "a call"
	if callee := calleeOf(info, call); callee != nil {
		name = "the call to " + callee.Name()
	}
	if gc {
		return name + " (may compact the arena)"
	}
	return name + " (may grow the arena)"
}
