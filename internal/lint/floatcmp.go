package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatCmp forbids == and != on floating-point values in the
// probability-bearing packages (quant, bdd, core, differ). The
// pipeline converts probabilities through -log transforms, BDD
// convolutions and integer scaling; two mathematically equal
// probabilities routinely differ in the last ulp, so exact comparison
// is either a latent bug or an undocumented sentinel check. Both cases
// must be explicit: tolerance comparison through fp.Eq/fp.EqTol,
// sentinel checks through fp.Zero/fp.One, or an auditable
// //lint:ignore floatcmp <reason>.
var FloatCmp = &Analyzer{
	Name: "floatcmp",
	Doc: "no ==/!= on float64 probabilities in quant/bdd/core/differ; " +
		"use the fp epsilon/sentinel helpers",
	Run: runFloatCmp,
}

func runFloatCmp(pass *Pass) {
	if !pathEndsIn(pass.Pkg.Path, "quant", "bdd", "core", "differ") {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			e, ok := n.(*ast.BinaryExpr)
			if !ok || (e.Op != token.EQL && e.Op != token.NEQ) {
				return true
			}
			if isFloat(info.Types[e.X].Type) || isFloat(info.Types[e.Y].Type) {
				pass.Reportf(e.OpPos, "floating-point %q comparison; use fp.Eq/fp.EqTol for tolerance "+
					"or fp.Zero/fp.One for exact sentinel checks", e.Op)
			}
			return true
		})
	}
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}
