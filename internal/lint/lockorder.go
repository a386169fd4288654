package lint

import (
	"go/ast"
	"go/token"
)

// LockOrder enforces two deadlock invariants across the service-side
// packages (serve, portfolio, obs):
//
//  1. Consistent lock ordering. Every observed nested acquisition —
//     taking mutex B while holding mutex A, directly or through a
//     callee whose summary acquires B — contributes an edge A→B to a
//     global lock-ordering graph built over all loaded packages. An
//     edge that lies on a cycle is reported: two goroutines taking the
//     same pair of locks in opposite orders is the textbook ABBA
//     deadlock, and it only manifests under contention.
//
//  2. No blocking while holding a mutex. A channel operation that can
//     park (send/receive outside a select with default), or a call
//     whose summary is may-block (a wait for an analysis slot,
//     WaitGroup.Wait, an http write), made while a mutex is held,
//     stalls every other goroutine that needs the lock — the
//     slow-subscriber-stalls-the-solver class the obs bus was
//     explicitly designed to avoid.
//
// Mutexes are identified by class (owning type + field, via
// mutexKeyOf), so acquisition orders observed in different functions
// and packages compose. The per-function scan is source-order with the
// guardedby defer convention: a deferred Unlock keeps the lock held to
// function end. Function literals are skipped — a closure defined under
// a lock does not necessarily run under it.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "lock acquisitions must follow one global order and must not " +
		"wrap may-block operations (channel waits, WaitGroup.Wait, HTTP writes)",
	Run: runLockOrder,
}

// lockOrderScope is the package set whose lock graphs compose; the
// solver core manages no cross-goroutine mutexes on its hot path.
func lockOrderScope(path string) bool {
	return pathEndsIn(path, "serve", "portfolio", "obs")
}

// lockEdge is one observed nested acquisition: to was locked while from
// was held, at pos.
type lockEdge struct {
	from, to string
	pos      token.Pos
}

func runLockOrder(pass *Pass) {
	if !lockOrderScope(pass.Pkg.Path) {
		return
	}
	// Build the global ordering graph from every in-scope package, then
	// report only the edges observed in this package — each pass owns
	// its own findings, and the graph is identical from every side.
	var edges []lockEdge
	graph := make(map[string]map[string]bool)
	for _, pkg := range pass.All {
		if !lockOrderScope(pkg.Path) {
			continue
		}
		scanPackageLocks(pass, pkg, func(e lockEdge) {
			edges = append(edges, e)
			if graph[e.from] == nil {
				graph[e.from] = make(map[string]bool)
			}
			graph[e.from][e.to] = true
		})
	}
	for _, e := range edges {
		if !posInPackage(pass, e.pos) {
			continue
		}
		if reaches(graph, e.to, e.from, make(map[string]bool)) {
			pass.Reportf(e.pos, "acquiring %s while holding %s creates a lock-ordering cycle: "+
				"%s is (transitively) held elsewhere when %s is acquired; pick one global order",
				e.to, e.from, e.to, e.from)
		}
	}
}

// scanPackageLocks walks every function of pkg, emitting ordering edges
// through edge() and reporting may-block-under-mutex findings when the
// function belongs to the pass's own package.
func scanPackageLocks(pass *Pass, pkg *Package, edge func(lockEdge)) {
	report := pkg.Path == pass.Pkg.Path
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			scanFuncLocks(pass, pkg, fd, report, edge)
		}
	}
}

// scanFuncLocks is the per-function source-order scan: it tracks held
// mutex classes, emits ordering edges on nested acquisition (direct or
// via callee Acquires summaries), and flags blocking operations under a
// held lock.
func scanFuncLocks(pass *Pass, pkg *Package, fd *ast.FuncDecl, report bool, edge func(lockEdge)) {
	info := pkg.Info
	held := make(map[string]int)
	heldOrder := []string{} // acquisition order, for readable findings
	heldAny := func() (string, bool) {
		for i := len(heldOrder) - 1; i >= 0; i-- {
			if held[heldOrder[i]] > 0 {
				return heldOrder[i], true
			}
		}
		return "", false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			// A closure defined under the lock does not necessarily run
			// under it; its body is scanned when it runs (or never —
			// under-approximation is the right bias here).
			return false
		case *ast.DeferStmt:
			// Same convention as guardedby: a deferred Unlock keeps the
			// lock held to function end, so swallow it (skip the call so
			// the Unlock below never decrements).
			if _, op, ok := mutexOpKey(info, e.Call); ok && (op == "Unlock" || op == "RUnlock") {
				return false
			}
		case *ast.CallExpr:
			if key, op, ok := mutexOpKey(info, e); ok {
				switch op {
				case "Lock", "RLock":
					if holder, nested := heldAny(); nested && holder != key {
						edge(lockEdge{from: holder, to: key, pos: e.Pos()})
					}
					held[key]++
					heldOrder = append(heldOrder, key)
				case "Unlock", "RUnlock":
					held[key]--
				}
				return true
			}
			holder, locked := heldAny()
			if !locked {
				return true
			}
			// Direct stdlib blockers (WaitGroup.Wait, time.Sleep, http
			// writes) have no summary — classify them in place.
			if reason := blockingCall(info, e); reason != "" {
				if report {
					name := reason
					if s, ok := e.Fun.(*ast.SelectorExpr); ok {
						name = s.Sel.Name
					}
					pass.Reportf(e.Pos(), "call to %s may block (%s) while holding %s: "+
						"a stalled peer holds up every goroutine waiting on the lock; "+
						"move the call outside the critical section", name, reason, holder)
				}
				return true
			}
			callee := calleeOf(info, e)
			if callee == nil {
				return true
			}
			sum := pass.Summaries.Of(callee)
			for acquired := range sum.Acquires {
				if acquired != holder {
					edge(lockEdge{from: holder, to: acquired, pos: e.Pos()})
				}
			}
			if sum.MayBlock && report {
				pass.Reportf(e.Pos(), "call to %s may block (%s) while holding %s: "+
					"a stalled peer holds up every goroutine waiting on the lock; "+
					"move the call outside the critical section", callee.Name(), sum.Blocks, holder)
			}
		case *ast.SendStmt:
			if holder, locked := heldAny(); locked && report && !insideNonBlockingSelect(fd.Body, e.Pos()) {
				pass.Reportf(e.Pos(), "channel send while holding %s may block: "+
					"a full or unbuffered channel parks the goroutine with the lock held; "+
					"use a select with default or send outside the critical section", holder)
			}
		case *ast.UnaryExpr:
			if e.Op != token.ARROW {
				return true
			}
			if holder, locked := heldAny(); locked && report && !insideNonBlockingSelect(fd.Body, e.Pos()) {
				pass.Reportf(e.Pos(), "channel receive while holding %s may block: "+
					"an empty channel parks the goroutine with the lock held; "+
					"receive outside the critical section", holder)
			}
		}
		return true
	})
}

// reaches reports whether 'to' is reachable from 'from' in the ordering
// graph.
func reaches(graph map[string]map[string]bool, from, to string, seen map[string]bool) bool {
	if from == to {
		return true
	}
	if seen[from] {
		return false
	}
	seen[from] = true
	for next := range graph[from] {
		if reaches(graph, next, to, seen) {
			return true
		}
	}
	return false
}

// posInPackage reports whether pos falls in one of the pass package's
// files.
func posInPackage(pass *Pass, pos token.Pos) bool {
	name := pass.Fset.Position(pos).Filename
	for _, f := range pass.Pkg.Files {
		if pass.Fset.Position(f.Pos()).Filename == name {
			return true
		}
	}
	return false
}
