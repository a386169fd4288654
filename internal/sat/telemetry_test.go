package sat

import (
	"context"
	"testing"
	"time"

	"mpmcs4fta/internal/obs"
)

// TestTrailDepthWithoutBus: the trail-depth histogram is a metrics
// surface of its own (mpmcs4fta -metrics without -obs-listen), so it
// must be sampled at the poll boundaries even when no bus is attached.
func TestTrailDepthWithoutBus(t *testing.T) {
	depth := obs.NewHistogram(obs.DepthBuckets)
	s := New(56)
	pigeonhole(s, 8, 7)
	s.SetTelemetry(&Telemetry{HeartbeatEvery: time.Nanosecond, TrailDepth: depth})
	status, err := s.Solve(context.Background())
	if err != nil || status != Unsat {
		t.Fatalf("got %v, %v; want UNSAT", status, err)
	}
	if c := s.Stats().Conflicts; c < 4096 {
		t.Fatalf("only %d conflicts: too few poll boundaries to sample", c)
	}
	if depth.Count() == 0 {
		t.Fatal("trail-depth histogram is empty: samples were only taken with a bus attached")
	}
}
