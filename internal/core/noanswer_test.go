package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/gen"
	"mpmcs4fta/internal/maxsat"
	"mpmcs4fta/internal/portfolio"
)

// unknownSolver models an engine stopped before it learned anything: a
// deadline expiring before round 0 — Status Unknown, nil error (the
// Solver contract's "partial answer" shape the portfolio passes
// through when the race is cancelled cooperatively).
type unknownSolver struct{}

func (unknownSolver) Name() string { return "unknown-fake" }

func (unknownSolver) Solve(context.Context, *cnf.WCNF) (maxsat.Result, error) {
	return maxsat.Result{Status: maxsat.Unknown}, nil
}

func unknownEngines() []portfolio.Engine {
	return []portfolio.Engine{{Name: "unknown-fake", Solver: unknownSolver{}}}
}

// Regression for the deadline-vs-infeasible conflation: AnalyzeTopK
// used to break out of round 0 on maxsat.Unknown and then report
// ErrNoCutSet ("fault tree has no cut set") — a wrong answer about the
// tree, where the truth is merely "the solver never answered". It must
// report ErrNoAnswer instead.
func TestAnalyzeTopKDeadlineIsNotNoCutSet(t *testing.T) {
	_, err := AnalyzeTopK(context.Background(), gen.FPS(), 3,
		Options{Sequential: true, Engines: unknownEngines()})
	if err == nil {
		t.Fatal("expected an error from an answerless solve")
	}
	if errors.Is(err, ErrNoCutSet) {
		t.Fatalf("deadline expiry misclassified as ErrNoCutSet: %v", err)
	}
	if !errors.Is(err, ErrNoAnswer) {
		t.Fatalf("got %v, want ErrNoAnswer", err)
	}
}

// The completeness verdict: an Unknown truncation after round 0 keeps
// the earlier rounds but must mark the enumeration incomplete.
func TestAnalyzeTopKCompleteVerdict(t *testing.T) {
	tree := gen.FPS()

	// Unbounded run: exact and complete.
	sols, complete, err := AnalyzeTopKComplete(context.Background(), tree, 3, Options{Sequential: true})
	if err != nil {
		t.Fatalf("top-3: %v", err)
	}
	if !complete {
		t.Errorf("unbounded top-%d enumeration reported incomplete", len(sols))
	}
	for i, s := range sols {
		if s.Status != maxsat.Optimal.String() {
			t.Errorf("round %d status %q, want OPTIMAL", i, s.Status)
		}
	}

	// Anytime truncation (FEASIBLE round): incomplete.
	sols, complete, err = AnalyzeTopKComplete(context.Background(), tree, 5,
		Options{Sequential: true, Engines: anytimeEngines()})
	if err != nil {
		t.Fatalf("anytime top-k: %v", err)
	}
	if complete {
		t.Errorf("FEASIBLE-truncated enumeration (%d sols) reported complete", len(sols))
	}
}

// A k larger than the number of existing cut sets must still be
// complete: the final Infeasible round is an exhaustiveness proof.
func TestAnalyzeTopKCompleteExhausted(t *testing.T) {
	tree := gen.FPS()
	sols, complete, err := AnalyzeTopKComplete(context.Background(), tree, 1_000_000, Options{Sequential: true})
	if err != nil {
		t.Fatalf("exhaustive enumeration: %v", err)
	}
	if !complete {
		t.Errorf("exhausted enumeration of %d cut sets reported incomplete", len(sols))
	}
	if len(sols) == 0 || len(sols) == 1_000_000 {
		t.Fatalf("suspicious cut-set count %d", len(sols))
	}
}

// An expired real deadline must never surface as ErrNoCutSet either:
// with an engine that cannot answer, AnalyzeTopK reports ErrNoAnswer
// carrying the deadline.
func TestAnalyzeTopKExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := AnalyzeTopK(ctx, gen.FPS(), 3, Options{Sequential: true, Engines: blockingEngines()})
	if errors.Is(err, ErrNoCutSet) {
		t.Fatalf("expired deadline misclassified as ErrNoCutSet: %v", err)
	}
	if !errors.Is(err, ErrNoAnswer) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want ErrNoAnswer wrapping context.DeadlineExceeded", err)
	}
}

// AnalyzeDisjoint shared the same round-0 conflation.
func TestAnalyzeDisjointDeadlineIsNotNoCutSet(t *testing.T) {
	_, err := AnalyzeDisjoint(context.Background(), gen.FPS(), 3,
		Options{Sequential: true, Engines: unknownEngines()})
	if err == nil {
		t.Fatal("expected an error from an answerless solve")
	}
	if errors.Is(err, ErrNoCutSet) {
		t.Fatalf("deadline expiry misclassified as ErrNoCutSet: %v", err)
	}
	if !errors.Is(err, ErrNoAnswer) {
		t.Fatalf("got %v, want ErrNoAnswer", err)
	}
}

// AnalyzeAbove: an answerless round 0 must be ErrNoAnswer, not the
// silent empty slice that reads as "nothing above the threshold".
func TestAnalyzeAboveDeadlineIsNoAnswer(t *testing.T) {
	_, err := AnalyzeAbove(context.Background(), gen.FPS(), 0.001,
		Options{Sequential: true, Engines: unknownEngines()})
	if !errors.Is(err, ErrNoAnswer) {
		t.Fatalf("got %v, want ErrNoAnswer", err)
	}
}

// Analyze's own no-answer path must match the taxonomy too.
func TestAnalyzeUnknownIsNoAnswer(t *testing.T) {
	_, err := Analyze(context.Background(), gen.FPS(), Options{Sequential: true, Engines: unknownEngines()})
	if !errors.Is(err, ErrNoAnswer) {
		t.Fatalf("got %v, want ErrNoAnswer", err)
	}
	if errors.Is(err, ErrNoCutSet) {
		t.Fatalf("no-answer misclassified as ErrNoCutSet: %v", err)
	}
}

// blockingSolver models an engine on a hard instance: it makes no
// progress until its context ends.
type blockingSolver struct{}

func (blockingSolver) Name() string { return "blocking-fake" }

func (blockingSolver) Solve(ctx context.Context, _ *cnf.WCNF) (maxsat.Result, error) {
	<-ctx.Done()
	return maxsat.Result{Status: maxsat.Unknown}, ctx.Err()
}

func blockingEngines() []portfolio.Engine {
	return []portfolio.Engine{{Name: "blocking-fake", Solver: blockingSolver{}}}
}

// Options.Timeout must bound every analysis entry point, not just
// Analyze and AnalyzeTopK: each call returns ErrNoAnswer carrying the
// deadline instead of running until the engine gives up on its own.
func TestTimeoutBoundsEveryEntryPoint(t *testing.T) {
	opts := Options{
		Timeout: 50 * time.Millisecond,
		Engines: blockingEngines(),
	}
	ctx := context.Background()
	tree := gen.FPS()
	analyzer, err := NewAnalyzer(tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]func() error{
		"Analyze": func() error {
			_, err := Analyze(ctx, tree, opts)
			return err
		},
		"AnalyzeTopK": func() error {
			_, err := AnalyzeTopK(ctx, tree, 3, opts)
			return err
		},
		"AnalyzeAbove": func() error {
			_, err := AnalyzeAbove(ctx, tree, 0.001, opts)
			return err
		},
		"AnalyzeDisjoint": func() error {
			_, err := AnalyzeDisjoint(ctx, tree, 3, opts)
			return err
		},
		"Analyzer.Analyze": func() error {
			_, err := analyzer.Analyze(ctx, nil)
			return err
		},
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() { done <- call() }()
			select {
			case err := <-done:
				if !errors.Is(err, ErrNoAnswer) || !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("got %v, want ErrNoAnswer wrapping context.DeadlineExceeded", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("still running 2s after a 50ms timeout")
			}
		})
	}
}

// A tree whose top event cannot occur (an AND over an impossible
// event) has no cut set, and every MaxSAT entry point must say so with
// ErrNoCutSet — AnalyzeAbove included, whose empty result would read as
// "nothing above the threshold".
func TestNoCutSetEveryEntryPoint(t *testing.T) {
	tree := ft.New("never")
	for _, err := range []error{
		tree.AddEvent("a", 0),
		tree.AddEvent("b", 0.5),
		tree.AddAnd("top", "a", "b"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	tree.SetTop("top")
	ctx := context.Background()
	opts := Options{Sequential: true}
	calls := []struct {
		name string
		run  func() error
	}{
		{"Analyze", func() error { _, err := Analyze(ctx, tree, opts); return err }},
		{"AnalyzeTopK", func() error { _, err := AnalyzeTopK(ctx, tree, 3, opts); return err }},
		{"AnalyzeAbove", func() error { _, err := AnalyzeAbove(ctx, tree, 0.001, opts); return err }},
		{"AnalyzeDisjoint", func() error { _, err := AnalyzeDisjoint(ctx, tree, 3, opts); return err }},
	}
	for _, c := range calls {
		t.Run(c.name, func(t *testing.T) {
			if err := c.run(); !errors.Is(err, ErrNoCutSet) {
				t.Fatalf("got %v, want ErrNoCutSet", err)
			}
		})
	}
}
