package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SpanClose enforces the obs span lifecycle: every span obtained from
// a StartSpan call must be ended on every path out of the function
// that starts it. An unended span corrupts the recorded trace tree
// (duration zero, children attached to a region that never closed) and
// is invisible until someone reads a trace from a failing production
// solve.
//
// The analyzer runs a statement-level abstract interpretation over the
// function body: branches fork the ended/unended state and merge
// conservatively (a span is ended after an if/switch/select only if
// every surviving arm ended it). Ownership transfer counts as ending:
// passing the span to a callee, returning it, storing it, or
// capturing it in a function literal hands the End obligation to the
// receiver (the portfolio hands spans to engine goroutines this way).
var SpanClose = &Analyzer{
	Name: "spanclose",
	Doc:  "every obs span started must be ended (or handed off) on all paths",
	Run:  runSpanClose,
}

func runSpanClose(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				w := &spanWalker{pass: pass, info: pass.Pkg.Info, reported: make(map[types.Object]bool)}
				st, terminated := w.block(body.List, spanState{})
				if !terminated {
					w.leak(st, body.Rbrace)
				}
			}
			return true // nested FuncLits are visited (and analyzed) separately
		})
	}
}

// spanState maps each tracked span variable to whether it has been
// ended (or handed off) on the current path.
type spanState map[types.Object]bool

func (st spanState) clone() spanState {
	out := make(spanState, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

type spanWalker struct {
	pass     *Pass
	info     *types.Info
	reported map[types.Object]bool
	starts   map[types.Object]token.Pos
}

// report flags a span once, at its StartSpan site.
func (w *spanWalker) report(obj types.Object, exit token.Pos, what string) {
	if w.reported[obj] {
		return
	}
	w.reported[obj] = true
	pos := obj.Pos()
	if p, ok := w.starts[obj]; ok {
		pos = p
	}
	// The exit lies in the same function as the StartSpan, so its line
	// alone locates it.
	w.pass.Reportf(pos, "span %q %s (exit at line %d); call End on every path or defer it",
		obj.Name(), what, w.pass.Fset.Position(exit).Line)
}

// leak reports every span still unended at a function exit.
func (w *spanWalker) leak(st spanState, exit token.Pos) {
	for obj, ended := range st {
		if !ended {
			w.report(obj, exit, "is not ended on all paths")
		}
	}
}

// block runs the walker over a statement list. terminated means every
// path through the list returns or panics.
func (w *spanWalker) block(stmts []ast.Stmt, st spanState) (spanState, bool) {
	st = st.clone()
	for _, s := range stmts {
		var terminated bool
		st, terminated = w.stmt(s, st)
		if terminated {
			return st, true
		}
	}
	return st, false
}

func (w *spanWalker) stmt(s ast.Stmt, st spanState) (spanState, bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.scanEscapes(st, s.Rhs...)
		for i, rhs := range s.Rhs {
			if call, ok := startSpanCall(w.info, rhs); ok {
				w.trackAssign(st, s.Lhs, i, len(s.Rhs), call)
			}
		}
		return st, false

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				w.scanEscapes(st, vs.Values...)
				for i, v := range vs.Values {
					if call, ok := startSpanCall(w.info, v); ok && i < len(vs.Names) {
						w.track(st, vs.Names[i], call)
					}
				}
			}
		}
		return st, false

	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if obj := endCallReceiver(w.info, call); obj != nil {
				w.scanEscapes(st, call.Args...)
				if _, tracked := st[obj]; tracked {
					st[obj] = true
					return st, false
				}
			}
			if _, isStart := startSpanCall(w.info, s.X); isStart {
				w.pass.Reportf(call.Pos(), "span discarded without End: assign it and end it, or hand it to an owner")
				return st, false
			}
			if isTerminatorCall(call) {
				w.scanEscapes(st, call.Args...)
				return st, true
			}
		}
		w.scanEscapes(st, s.X)
		return st, false

	case *ast.DeferStmt:
		if obj := endCallReceiver(w.info, s.Call); obj != nil {
			if _, tracked := st[obj]; tracked {
				st[obj] = true
				return st, false
			}
		}
		w.scanEscapes(st, s.Call)
		return st, false

	case *ast.ReturnStmt:
		w.scanEscapes(st, s.Results...)
		w.leak(st, s.Return)
		return st, true

	case *ast.BlockStmt:
		return w.block(s.List, st)

	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		w.scanEscapes(st, s.Cond)
		thenSt, thenTerm := w.block(s.Body.List, st)
		elseSt, elseTerm := st.clone(), false
		if s.Else != nil {
			elseSt, elseTerm = w.stmt(s.Else, st)
		}
		return merge(thenSt, thenTerm, elseSt, elseTerm)

	case *ast.ForStmt:
		return w.loop(st, s.Init, s.Cond, s.Post, s.Body)

	case *ast.RangeStmt:
		w.scanEscapes(st, s.X)
		return w.loop(st, nil, nil, nil, s.Body)

	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		w.scanEscapes(st, s.Tag)
		return w.branches(st, caseBodies(s.Body), hasDefaultClause(s.Body))

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		return w.branches(st, caseBodies(s.Body), hasDefaultClause(s.Body))

	case *ast.SelectStmt:
		var bodies [][]ast.Stmt
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				bodies = append(bodies, cc.Body)
			}
		}
		// A select with no default still runs exactly one case, so no
		// implicit fall-through arm.
		return w.branches(st, bodies, true)

	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)

	case *ast.GoStmt:
		w.scanEscapes(st, s.Call)
		return st, false

	case *ast.SendStmt:
		w.scanEscapes(st, s.Chan, s.Value)
		return st, false

	case *ast.IncDecStmt:
		return st, false

	case *ast.BranchStmt:
		// break/continue/goto: treated as falling through. This can
		// miss a leak via an early break, but never falsely flags the
		// common end-then-break shape.
		return st, false

	default:
		return st, false
	}
}

// loop analyzes a for/range body: spans started inside the body must
// be ended by the end of each iteration; spans from outside remain in
// whatever state the zero-iteration path leaves them (the loop may not
// run).
func (w *spanWalker) loop(st spanState, init ast.Stmt, cond ast.Expr, post ast.Stmt, body *ast.BlockStmt) (spanState, bool) {
	if init != nil {
		st, _ = w.stmt(init, st)
	}
	if cond != nil {
		w.scanEscapes(st, cond)
	}
	bodySt, terminated := w.block(body.List, st)
	if post != nil {
		bodySt, _ = w.stmt(post, bodySt)
	}
	if !terminated {
		for obj, ended := range bodySt {
			if _, outer := st[obj]; !outer && !ended {
				w.report(obj, body.Rbrace, "started inside a loop is not ended by the end of the iteration")
			}
		}
	}
	// Zero-iteration path: outer spans keep their pre-loop state,
	// except those the body provably ended on every iteration AND that
	// the pre-state already... be conservative: pre-loop state wins.
	return st, false
}

// branches merges the arms of a switch/select. fallthroughCovered
// marks bodies as exhaustive (select, or switch with default); without
// it the pre-branch state joins the merge.
func (w *spanWalker) branches(st spanState, bodies [][]ast.Stmt, exhaustive bool) (spanState, bool) {
	if len(bodies) == 0 {
		return st, false
	}
	mergedSet := false
	var merged spanState
	var mergedTerm bool
	consider := func(s spanState, term bool) {
		if !mergedSet {
			merged, mergedTerm, mergedSet = s, term, true
			return
		}
		merged, mergedTerm = merge(merged, mergedTerm, s, term)
	}
	for _, body := range bodies {
		bSt, bTerm := w.block(body, st)
		consider(bSt, bTerm)
	}
	if !exhaustive {
		consider(st.clone(), false)
	}
	return merged, mergedTerm
}

// caseBodies collects the statement lists of a switch body's clauses.
func caseBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			out = append(out, cc.Body)
		}
	}
	return out
}

// hasDefaultClause reports whether a switch body has a default case.
func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// merge joins two branch outcomes: terminated branches drop out; a
// span is ended only if ended in every surviving branch.
func merge(a spanState, aTerm bool, b spanState, bTerm bool) (spanState, bool) {
	switch {
	case aTerm && bTerm:
		return a, true
	case aTerm:
		return b, false
	case bTerm:
		return a, false
	}
	out := a.clone()
	for obj, ended := range b {
		if prev, ok := out[obj]; ok {
			out[obj] = prev && ended
		} else {
			out[obj] = ended
		}
	}
	return out, false
}

// trackAssign handles span-producing right-hand sides.
func (w *spanWalker) trackAssign(st spanState, lhs []ast.Expr, i, nRhs int, call *ast.CallExpr) {
	var target ast.Expr
	if nRhs == len(lhs) {
		target = lhs[i]
	} else if len(lhs) == 1 {
		target = lhs[0]
	} else {
		return
	}
	ident, ok := ast.Unparen(target).(*ast.Ident)
	if !ok {
		// Stored into a field, map or slice: ownership moved to the
		// container.
		return
	}
	if ident.Name == "_" {
		w.pass.Reportf(call.Pos(), "span discarded without End: assign it and end it, or hand it to an owner")
		return
	}
	w.track(st, ident, call)
}

// track begins tracking the span bound to ident.
func (w *spanWalker) track(st spanState, ident *ast.Ident, call *ast.CallExpr) {
	obj := w.info.Defs[ident]
	if obj == nil {
		obj = w.info.Uses[ident] // reassignment of an existing variable
	}
	if obj == nil {
		return
	}
	if ended, tracked := st[obj]; tracked && !ended {
		w.report(obj, call.Pos(), "is overwritten before being ended")
	}
	if w.starts == nil {
		w.starts = make(map[types.Object]token.Pos)
	}
	w.starts[obj] = call.Pos()
	st[obj] = false
}

// scanEscapes marks tracked spans as handed off when they are used in
// any way other than calling their own methods: passed as an argument,
// returned, stored, captured by a closure.
func (w *spanWalker) scanEscapes(st spanState, exprs ...ast.Expr) {
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				// A closure capturing the span owns its End obligation,
				// even when the capture's only use is calling End.
				ast.Inspect(n.Body, func(m ast.Node) bool {
					if ident, ok := m.(*ast.Ident); ok {
						if obj := w.info.Uses[ident]; obj != nil {
							if _, tracked := st[obj]; tracked {
								st[obj] = true
							}
						}
					}
					return true
				})
				return false
			case *ast.SelectorExpr:
				// v.End()/v.SetInt()/v.StartSpan(): method access on
				// the span is not an escape; skip the receiver ident.
				if ident, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					if obj := w.info.Uses[ident]; obj != nil {
						if _, tracked := st[obj]; tracked {
							return false
						}
					}
				}
				return true
			case *ast.Ident:
				if obj := w.info.Uses[n]; obj != nil {
					if _, tracked := st[obj]; tracked {
						st[obj] = true // handed off: owner must End it
					}
				}
				return true
			}
			return true
		})
	}
}

// startSpanCall matches calls to a method named StartSpan whose result
// type has an End method (obs.Tracer.StartSpan, obs.Span.StartSpan and
// their golden-test doubles).
func startSpanCall(info *types.Info, e ast.Expr) (*ast.CallExpr, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	case *ast.Ident:
		name = fun.Name
	default:
		return nil, false
	}
	if name != "StartSpan" {
		return nil, false
	}
	tv, ok := info.Types[call]
	if !ok {
		return nil, false
	}
	return call, hasEndMethod(tv.Type)
}

// endCallReceiver matches v.End() on a span-typed variable and returns
// v's object.
func endCallReceiver(info *types.Info, call *ast.CallExpr) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" || len(call.Args) != 0 {
		return nil
	}
	ident, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[ident]
}

// hasEndMethod reports whether the type's method set contains End().
func hasEndMethod(t types.Type) bool {
	if t == nil {
		return false
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == "End" {
				return true
			}
		}
		return false
	}
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == "End" {
			return true
		}
	}
	// Also consider the pointer method set for value results.
	ms = types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == "End" {
			return true
		}
	}
	return false
}

// isTerminatorCall matches panic(...) and os.Exit(...).
func isTerminatorCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if ident, ok := fun.X.(*ast.Ident); ok {
			return ident.Name == "os" && fun.Sel.Name == "Exit"
		}
	}
	return false
}
