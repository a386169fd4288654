package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// WeightSafe enforces checked arithmetic on soft-clause weights and
// cost totals. The 2022 MaxSAT-evaluation WCNF dialect permits
// individual weights near 2^63, so raw int64 + and * on weight-typed
// values can silently wrap (the overflow class fixed in PR 4's
// soft-weight total guard). Additions and multiplications whose
// operands are weight-typed — an int64 whose identifier, field,
// indexed map/slice or called function matches (?i)weight|cost — must
// go through the overflow-checked cnf.AddWeights/cnf.MulWeights
// helpers, or carry an auditable //lint:ignore weightsafe <reason>
// stating why the value is already bounded.
var WeightSafe = &Analyzer{
	Name: "weightsafe",
	Doc: "raw + / * on weight-typed int64s must use the checked " +
		"cnf.AddWeights/cnf.MulWeights helpers",
	Run: runWeightSafe,
}

// weightNamePattern decides whether an expression denotes a weight or
// cost quantity. Deliberately a name heuristic: the repo has no single
// named weight type (weights flow through int64 fields, maps and
// accumulators), and names are what the domain invariant is written
// in.
var weightNamePattern = regexp.MustCompile(`(?i)weight|cost`)

func runWeightSafe(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.BinaryExpr:
				if (e.Op == token.ADD || e.Op == token.MUL) &&
					isInt64(info.Types[e.X].Type) &&
					(weightNamed(e.X) || weightNamed(e.Y)) {
					pass.Reportf(e.OpPos, "unchecked %q on weight-typed int64 may overflow; "+
						"use cnf.AddWeights/cnf.MulWeights or annotate why the operands are bounded", e.Op)
				}
			case *ast.AssignStmt:
				if (e.Tok == token.ADD_ASSIGN || e.Tok == token.MUL_ASSIGN) &&
					len(e.Lhs) == 1 && len(e.Rhs) == 1 &&
					isInt64(info.Types[e.Lhs[0]].Type) &&
					(weightNamed(e.Lhs[0]) || weightNamed(e.Rhs[0])) {
					pass.Reportf(e.TokPos, "unchecked %q on weight-typed int64 may overflow; "+
						"use cnf.AddWeights/cnf.MulWeights or annotate why the operands are bounded", e.Tok)
				}
			}
			return true
		})
	}
}

// weightNamed reports whether the expression's terminal name looks
// weight-typed.
func weightNamed(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return weightNamePattern.MatchString(e.Name)
	case *ast.SelectorExpr:
		return weightNamePattern.MatchString(e.Sel.Name)
	case *ast.IndexExpr:
		return weightNamed(e.X)
	case *ast.StarExpr:
		return weightNamed(e.X)
	case *ast.CallExpr:
		return weightNamed(e.Fun)
	}
	return false
}

func isInt64(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Int64
}
