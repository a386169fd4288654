// Package lint is the repo's domain-aware static analysis suite: a
// small, dependency-free analysis framework (built directly on go/ast
// and go/types, loading type information from the go tool's export
// data) plus the analyzers that enforce this codebase's solver
// invariants — context polling in engine loops, checked weight
// arithmetic, epsilon-based probability comparison, mutex-guarded
// field access, span lifecycle, goroutine joining, arena reference
// lifetimes, lock ordering, exactly-once result delivery and the
// serve-boundary error taxonomy. The second-generation analyzers
// (arenaref, lockorder, exactlyonce, errtaxonomy) share one
// interprocedural function-summary pass (summary.go): per-function
// may-trigger-arena-GC, may-block and acquires-mutex properties,
// computed as a fixed point over the module call graph.
//
// The analyzers encode invariants whose violations were previously
// found only by fuzzing or production incidents (see PR 4: a CDCL loop
// that polled ctx only on conflicts, an int64 overflow in soft-weight
// totals, racy portfolio bound state). Running them on every PR turns
// those bug classes into build failures.
//
// Findings can be suppressed with an auditable directive:
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the offending line or the line directly above it. The
// reason is mandatory; a directive without one is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in findings and ignore directives.
	Name string
	// Doc is the one-paragraph description shown by ftlint -list.
	Doc string
	// Run reports the analyzer's findings for one package.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package under analysis.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps positions for every loaded package.
	Fset *token.FileSet
	// Pkg is the package under analysis.
	Pkg *Package
	// All maps import path to every module package loaded alongside
	// Pkg (its module dependencies included), for interprocedural
	// reasoning. In vettool mode only Pkg itself is present.
	All map[string]*Package
	// Summaries holds the per-function interprocedural summaries
	// (may-GC, may-block, may-poll, acquires) computed once per Run over
	// All; ctxpoll and the second-generation analyzers consult it
	// instead of re-walking the call graph. In vettool mode it covers the single package, so
	// cross-package properties degrade to "unknown" (no finding).
	Summaries *Summaries

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Analyzer names the check that fired ("ignore" for malformed
	// suppression directives).
	Analyzer string `json:"analyzer"`
	// Pos locates the finding.
	Pos token.Position `json:"-"`
	// File, Line and Col mirror Pos for JSON output.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Message describes the violated invariant.
	Message string `json:"message"`
}

// String formats the finding the way compilers do.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzers returns the full suite in stable order: the six
// intra-procedural first-generation analyzers, then the four
// summary-driven second-generation ones.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		CtxPoll,
		WeightSafe,
		FloatCmp,
		GuardedBy,
		SpanClose,
		GoroutineWait,
		ArenaRef,
		LockOrder,
		ExactlyOnce,
		ErrTaxonomy,
	}
}

// Run applies the analyzers to every target package and returns the
// surviving findings: suppressed ones are dropped, malformed
// suppression directives are added, and the result is sorted by
// position. all may include dependency packages beyond the targets;
// analyzers use it for cross-package reasoning but findings are only
// reported for targets.
func Run(fset *token.FileSet, targets []*Package, all map[string]*Package, analyzers []*Analyzer) []Diagnostic {
	sums := summarize(all)
	var diags []Diagnostic
	for _, pkg := range targets {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: fset, Pkg: pkg, All: all, Summaries: sums, diags: &diags}
			a.Run(pass)
		}
	}
	// Suppression is per-file: map each file to its package's parsed
	// directives, drop suppressed findings, and surface malformed
	// directives as findings of their own.
	var kept []Diagnostic
	byFile := make(map[string]*directives)
	var allDirs []*directives
	for _, pkg := range targets {
		dirs := directivesFor(fset, pkg)
		kept = append(kept, dirs.malformed...)
		allDirs = append(allDirs, dirs)
		for _, f := range pkg.Files {
			byFile[fset.Position(f.Pos()).Filename] = dirs
		}
	}
	for _, d := range diags {
		if dirs, ok := byFile[d.Pos.Filename]; ok && dirs.suppresses(d) {
			continue
		}
		kept = append(kept, d)
	}
	// Suppression rot: a well-formed directive that suppressed nothing
	// (and whose analyzers all ran, so that is a proof) is a finding —
	// it documents a violation that no longer exists and would silently
	// swallow the next real one.
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	fullSuite := true
	for _, a := range Analyzers() {
		if !ran[a.Name] {
			fullSuite = false
			break
		}
	}
	for _, dirs := range allDirs {
		kept = append(kept, dirs.unused(ran, fullSuite)...)
	}
	for i := range kept {
		kept[i].File = kept[i].Pos.Filename
		kept[i].Line = kept[i].Pos.Line
		kept[i].Col = kept[i].Pos.Column
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept
}

// pathEndsIn reports whether the import path's final element is one of
// names — the scoping rule analyzers use so golden-test packages under
// testdata/src mirror the real package layout.
func pathEndsIn(path string, names ...string) bool {
	elem := path
	if i := lastSlash(path); i >= 0 {
		elem = path[i+1:]
	}
	for _, n := range names {
		if elem == n {
			return true
		}
	}
	return false
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}

// isTestFile reports whether the file was compiled from a _test.go
// source. The standalone loader never sees test files (go list GoFiles
// excludes them), but vettool mode analyses test variants too; the
// suite deliberately skips them — tests may compare floats exactly
// against goldens, spin bounded loops, and so on.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	name := fset.Position(f.Pos()).Filename
	return len(name) >= 8 && name[len(name)-8:] == "_test.go"
}
