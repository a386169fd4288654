package lint

import (
	"go/ast"
	"strings"
)

// GoroutineWait forbids fire-and-forget goroutines in the portfolio,
// the observability layer and the command binaries: a function that
// launches a goroutine must also contain a visible join — a Wait()
// call (sync.WaitGroup, errgroup), a channel receive, a range over a
// channel, or a select. The portfolio's anytime contract depends on
// every engine goroutine being collected before Solve returns (PR 4's
// goroutine-leak regression tests exist because an uncollected engine
// kept publishing bounds into a dead race); an intentionally detached
// goroutine must carry //lint:ignore goroutinewait <who owns its
// lifetime>.
var GoroutineWait = &Analyzer{
	Name: "goroutinewait",
	Doc: "no naked go statements in portfolio/obs/cmd without a " +
		"WaitGroup, channel or select join in the same function",
	Run: runGoroutineWait,
}

func runGoroutineWait(pass *Pass) {
	if !pathEndsIn(pass.Pkg.Path, "portfolio", "obs") && !strings.Contains(pass.Pkg.Path, "/cmd/") {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var gos []*ast.GoStmt
			joined := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					gos = append(gos, n)
				case *ast.SelectStmt:
					joined = true
				case *ast.UnaryExpr:
					if n.Op.String() == "<-" {
						joined = true
					}
				case *ast.RangeStmt:
					if isChannelRange(pass, n) {
						joined = true
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
						joined = true
					}
				}
				return true
			})
			if joined {
				continue
			}
			for _, g := range gos {
				pass.Reportf(g.Go, "goroutine launched without a join in %s: add a WaitGroup/channel/select join, "+
					"or annotate who owns the goroutine's lifetime", fd.Name.Name)
			}
		}
	}
}

// isChannelRange reports whether the range statement iterates a
// channel.
func isChannelRange(pass *Pass, r *ast.RangeStmt) bool {
	tv, ok := pass.Pkg.Info.Types[r.X]
	if !ok || tv.Type == nil {
		return false
	}
	return strings.HasPrefix(tv.Type.Underlying().String(), "chan")
}
