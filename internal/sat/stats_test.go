package sat

import (
	"context"
	"testing"
)

// TestResetStatsPerSolveSnapshot checks that ResetStats yields
// per-call deltas instead of counters that accumulate invisibly across
// successive incremental Solve calls.
func TestResetStatsPerSolveSnapshot(t *testing.T) {
	s := New(3)
	s.AddClause(1, 2)
	s.AddClause(-1, 3)

	if _, err := s.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	first := s.ResetStats()
	if first.Decisions == 0 && first.Propagations == 0 {
		t.Error("first solve recorded no work at all")
	}
	if got := s.Stats(); got != (Stats{}) {
		t.Errorf("counters not zeroed after ResetStats: %+v", got)
	}

	// A second solve under an assumption does fresh work; the snapshot
	// must cover only that call.
	if _, err := s.Solve(context.Background(), -2); err != nil {
		t.Fatal(err)
	}
	second := s.ResetStats()
	if second.Decisions > first.Decisions+second.Decisions {
		t.Errorf("second snapshot %+v leaked counts from the first %+v", second, first)
	}
	if got := s.Stats(); got != (Stats{}) {
		t.Errorf("counters not zeroed after second ResetStats: %+v", got)
	}
}
