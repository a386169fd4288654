package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// ErrTaxonomy enforces the error-handling discipline the serve-side
// status taxonomy depends on:
//
//  1. Sentinel comparisons use errors.Is, never == or != against a
//     package-level error variable. The engines wrap their sentinels
//     (fmt.Errorf("%w: ...", ErrInterrupted)) as errors travel up
//     through maxsat → portfolio → core, so an == that happens to work
//     today silently stops matching the first time a layer adds
//     context — the exact bug class behind PR 9's
//     deadline-vs-infeasible misclassification.
//
//  2. Wrapping uses %w. An error formatted with %v or %s is flattened
//     to text: errors.Is/As stop seeing it, and the taxonomy mapping at
//     the serve boundary degrades to string matching.
//
//  3. Every response the serve package writes goes through the
//     status.go table: writeJSON's status-code argument must be an
//     HTTPStatus(...) call, not a literal or an http.Status* constant,
//     so a verdict's HTTP code, exit code and JSON status can never
//     disagree. (Rules 1 and 2 apply module-wide; rule 3 only in
//     serve-suffixed packages.)
var ErrTaxonomy = &Analyzer{
	Name: "errtaxonomy",
	Doc: "sentinel errors are compared with errors.Is (never ==/!=), wrapped " +
		"with %w (never %v/%s), and serve responses map through the status.go taxonomy",
	Run: runErrTaxonomy,
}

func runErrTaxonomy(pass *Pass) {
	info := pass.Pkg.Info
	serveScoped := pathEndsIn(pass.Pkg.Path, "serve")
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.BinaryExpr:
				if e.Op != token.EQL && e.Op != token.NEQ {
					return true
				}
				if sentinel := sentinelOperand(info, e.X, e.Y); sentinel != "" {
					pass.Reportf(e.OpPos, "sentinel comparison %s %s: wrapped errors stop matching; "+
						"use errors.Is(err, %s)", e.Op, sentinel, sentinel)
				}
			case *ast.CallExpr:
				if isErrorfCall(info, e) {
					checkErrorfVerbs(pass, info, e)
				}
				if serveScoped {
					checkServeBoundary(pass, info, e)
				}
			}
			return true
		})
	}
}

// sentinelOperand reports the rendered name of a package-level error
// variable compared against another error value, or "" when the
// comparison is not a sentinel test (nil checks and non-error operands
// are fine).
func sentinelOperand(info *types.Info, x, y ast.Expr) string {
	if !isErrorType(info.Types[x].Type) || !isErrorType(info.Types[y].Type) {
		return ""
	}
	for _, operand := range []ast.Expr{x, y} {
		var id *ast.Ident
		switch e := ast.Unparen(operand).(type) {
		case *ast.Ident:
			id = e
		case *ast.SelectorExpr:
			id = e.Sel
		default:
			continue
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.Pkg() == nil {
			continue
		}
		// Package-level error variables are the sentinel convention
		// (core.ErrNoCutSet, io.EOF, ...).
		if obj.Parent() == obj.Pkg().Scope() {
			return types.ExprString(operand)
		}
	}
	return ""
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}

// isErrorfCall matches fmt.Errorf.
func isErrorfCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" {
		return false
	}
	obj := info.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt"
}

// checkErrorfVerbs pairs the constant format string's verbs with the
// variadic arguments and reports error-typed arguments formatted with
// anything but %w.
func checkErrorfVerbs(pass *Pass, info *types.Info, call *ast.CallExpr) {
	if len(call.Args) < 2 {
		return
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return // dynamic format string: nothing to pair against
	}
	verbs := formatVerbs(constant.StringVal(tv.Value))
	for i, arg := range call.Args[1:] {
		if i >= len(verbs) {
			break
		}
		if verbs[i] == 'w' {
			continue
		}
		if isErrorType(info.Types[arg].Type) {
			pass.Reportf(arg.Pos(), "error formatted with %%%c flattens it to text: errors.Is/As "+
				"stop matching through this layer; wrap with %%w instead", verbs[i])
		}
	}
}

// formatVerbs extracts the verb letters of a format string in argument
// order, skipping %% and flag/width/precision characters.
func formatVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		for i < len(format) && strings.ContainsRune("+-# 0123456789.*[]", rune(format[i])) {
			i++
		}
		if i >= len(format) || format[i] == '%' {
			continue
		}
		verbs = append(verbs, format[i])
	}
	return verbs
}

// checkServeBoundary enforces rule 3: a call to a function named
// writeJSON must derive its status-code argument from the taxonomy
// (HTTPStatus(...)), keeping every surface's spelling of a verdict in
// one table.
func checkServeBoundary(pass *Pass, info *types.Info, call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "writeJSON" || len(call.Args) < 2 {
		return
	}
	code := ast.Unparen(call.Args[1])
	if inner, ok := code.(*ast.CallExpr); ok {
		if fn, ok := ast.Unparen(inner.Fun).(*ast.Ident); ok && fn.Name == "HTTPStatus" {
			return
		}
	}
	pass.Reportf(code.Pos(), "response status bypasses the taxonomy: pass HTTPStatus(<status>) "+
		"so the HTTP code, exit code and JSON status stay consistent (status.go)")
}
