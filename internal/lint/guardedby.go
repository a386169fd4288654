package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// GuardedBy enforces mutex discipline on annotated struct fields.
// A field whose declaration carries a comment matching
//
//	// guarded by <mutexField>
//
// may only be read or written while the owning struct's named mutex is
// held in the same function (a preceding <x>.<mutexField>.Lock() or
// RLock(), not yet released), or from a function whose name ends in
// "Locked" — the repo's convention for helpers that assert the caller
// holds the lock (e.g. portfolio.Bounds.checkMeetLocked).
//
// The lock tracking is a source-order scan, not a full CFG: locks
// taken in one branch are considered held in siblings. That trades a
// class of false negatives for zero false positives on the repo's
// straight-line lock sections, which is the right bias for a CI gate
// on shared portfolio bound state and obs counters.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc: "fields annotated '// guarded by mu' may only be accessed with " +
		"the mutex held or from *Locked functions",
	Run: runGuardedBy,
}

var guardedByPattern = regexp.MustCompile(`guarded by (\w+)`)

func runGuardedBy(pass *Pass) {
	guarded := guardedFields(pass.All)
	if len(guarded) == 0 {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || strings.HasSuffix(fd.Name.Name, "Locked") {
				continue
			}
			checkLockDiscipline(pass, fd, guarded)
		}
	}
}

// guardedFields collects annotated fields across all loaded packages:
// field object -> guarding mutex field name.
func guardedFields(all map[string]*Package) map[types.Object]string {
	guarded := make(map[types.Object]string)
	for _, pkg := range all {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					mu := fieldGuard(field)
					if mu == "" {
						continue
					}
					for _, name := range field.Names {
						if obj := pkg.Info.Defs[name]; obj != nil {
							guarded[obj] = mu
						}
					}
				}
				return true
			})
		}
	}
	return guarded
}

// fieldGuard extracts the guarding mutex name from the field's doc or
// trailing comment.
func fieldGuard(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByPattern.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// checkLockDiscipline scans one function in source order, tracking
// which "<base>.<mu>" mutexes are held, and reports guarded-field
// accesses outside a held section.
func checkLockDiscipline(pass *Pass, fd *ast.FuncDecl, guarded map[types.Object]string) {
	info := pass.Pkg.Info
	held := make(map[string]int) // "<base>.<mu>" -> lock depth
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.DeferStmt:
			// defer x.mu.Unlock() keeps the lock held to function end:
			// process the call for Lock (not expected) but swallow the
			// Unlock so it does not decrement.
			if base, op, ok := mutexOp(info, e.Call); ok && (op == "Unlock" || op == "RUnlock") {
				_ = base
				return false
			}
			return true
		case *ast.CallExpr:
			if base, op, ok := mutexOp(info, e); ok {
				switch op {
				case "Lock", "RLock":
					held[base]++
				case "Unlock", "RUnlock":
					held[base]--
				}
			}
			return true
		case *ast.SelectorExpr:
			obj := info.Uses[e.Sel]
			mu, ok := guarded[obj]
			if !ok {
				return true
			}
			base := types.ExprString(e.X)
			if held[base+"."+mu] <= 0 {
				pass.Reportf(e.Sel.Pos(), "field %s is guarded by %s but accessed without holding it: "+
					"lock %s.%s first, or access it from a function named *Locked", e.Sel.Name, mu, base, mu)
			}
			return true
		}
		return true
	})
}

// mutexOp matches calls of the form <base>.<mu>.Lock/Unlock/RLock/
// RUnlock on a sync.Mutex or sync.RWMutex and returns the rendered
// "<base>.<mu>" key and the operation.
func mutexOp(info *types.Info, call *ast.CallExpr) (base, op string, ok bool) {
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
	return types.ExprString(sel.X), sel.Sel.Name, true
}

func isMutexType(t types.Type) bool {
	s := t.String()
	return strings.HasSuffix(s, "sync.Mutex") || strings.HasSuffix(s, "sync.RWMutex")
}
