package lint

import (
	"strings"
	"testing"
)

func TestCtxPoll(t *testing.T)       { runAnalyzerTest(t, CtxPoll, "sat") }
func TestFloatCmp(t *testing.T)      { runAnalyzerTest(t, FloatCmp, "quant") }
func TestWeightSafe(t *testing.T)    { runAnalyzerTest(t, WeightSafe, "weights") }
func TestGuardedBy(t *testing.T)     { runAnalyzerTest(t, GuardedBy, "guarded") }
func TestSpanClose(t *testing.T)     { runAnalyzerTest(t, SpanClose, "spans") }
func TestGoroutineWait(t *testing.T) { runAnalyzerTest(t, GoroutineWait, "portfolio") }
func TestArenaRef(t *testing.T)      { runAnalyzerTest(t, ArenaRef, "arena") }
func TestLockOrder(t *testing.T)     { runAnalyzerTest(t, LockOrder, "lockorder/serve") }
func TestExactlyOnce(t *testing.T)   { runAnalyzerTest(t, ExactlyOnce, "exactlyonce/serve") }
func TestErrTaxonomy(t *testing.T)   { runAnalyzerTest(t, ErrTaxonomy, "errtax", "serve") }

// TestIgnoreDirectives proves the suppression contract: reasons are
// mandatory, coverage is one line, matching is by analyzer name or "*".
func TestIgnoreDirectives(t *testing.T) { runAnalyzerTest(t, WeightSafe, "ignore") }

// TestUnusedDirectives pins the suppression-rot finding format and the
// subset-run semantics: only directives whose every named analyzer ran
// can be proven unused ("*" needs the full suite).
func TestUnusedDirectives(t *testing.T) { runAnalyzerTest(t, WeightSafe, "unused") }

// TestScopedAnalyzersSkipForeignPackages runs the scoped analyzers
// against goldens full of violations that live OUTSIDE their scope: no
// findings may appear.
func TestScopedAnalyzersSkipForeignPackages(t *testing.T) {
	fset, targets, all, err := Load(".", "./testdata/src/weights", "./testdata/src/ignore")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for _, a := range []*Analyzer{CtxPoll, FloatCmp, GoroutineWait, ArenaRef, LockOrder, ExactlyOnce} {
		var diags []Diagnostic
		for _, pkg := range targets {
			pass := &Pass{Analyzer: a, Fset: fset, Pkg: pkg, All: all, diags: &diags}
			a.Run(pass)
		}
		for _, d := range diags {
			t.Errorf("%s fired outside its package scope: %s", a.Name, d)
		}
	}
}

// TestAnalyzersRegistered pins the suite composition ftlint -list and
// the CI job advertise.
func TestAnalyzersRegistered(t *testing.T) {
	wantNames := []string{"ctxpoll", "weightsafe", "floatcmp", "guardedby", "spanclose", "goroutinewait",
		"arenaref", "lockorder", "exactlyonce", "errtaxonomy"}
	got := Analyzers()
	if len(got) != len(wantNames) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(wantNames))
	}
	for i, a := range got {
		if a.Name != wantNames[i] {
			t.Errorf("Analyzers()[%d].Name = %q, want %q", i, a.Name, wantNames[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q lacks Doc or Run", a.Name)
		}
	}
}

// TestRepoIsClean is the self-application gate: the repo's own tree
// must have zero unsuppressed findings. A new violation anywhere fails
// this test (and CI) until it is fixed or carries a reasoned ignore.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	fset, targets, all, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	findings := Run(fset, targets, all, Analyzers())
	for _, d := range findings {
		t.Errorf("unsuppressed finding in repo: %s", d)
	}
}

// TestDiagnosticString pins the compiler-style rendering CI logs rely
// on.
func TestDiagnosticString(t *testing.T) {
	fset, targets, all, err := Load(".", "./testdata/src/weights")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	findings := Run(fset, targets, all, []*Analyzer{WeightSafe})
	if len(findings) == 0 {
		t.Fatal("expected findings in the weightsafe golden")
	}
	s := findings[0].String()
	if !strings.Contains(s, "[weightsafe]") || !strings.Contains(s, "weights.go:") {
		t.Errorf("Diagnostic.String() = %q, want file:line and [analyzer] tag", s)
	}
}
