package mpmcs4fta

// Guards the observability acceptance criterion: the disabled
// instrumentation path costs nothing measurable (< 5% on the FPS
// pipeline). The tracing half is pinned deterministically in
// internal/core (TestNopTracerGuard: an unset tracer is obs.Nop(),
// whose spans never allocate).

import (
	"context"
	"testing"
	"time"

	"mpmcs4fta/internal/obs"
)

// analyzeBatch runs iters sequential analyses and returns the elapsed
// wall time.
func analyzeBatch(tb testing.TB, opts Options, iters int) time.Duration {
	tb.Helper()
	ctx := context.Background()
	tree := ExampleFPS()
	start := time.Now()
	for i := 0; i < iters; i++ {
		sol, err := Analyze(ctx, tree, opts)
		if err != nil {
			tb.Fatal(err)
		}
		if sol.Probability < 0.0199 || sol.Probability > 0.0201 {
			tb.Fatalf("wrong answer: %v", sol.Probability)
		}
	}
	return time.Since(start)
}

// TestNopBusOverheadGuard is the event-bus analogue: solver telemetry
// hooks are compiled into the hot paths unconditionally, so the guard
// compares the disabled bus (nil Options.Bus, the default) against an
// enabled idle bus. If even the enabled-with-no-subscribers path stays
// within 5%, the disabled path — a nil-receiver check per publish
// site — certainly does; a regression in either direction (hooks that
// got expensive, or a default-on bus sneaking in) fails every attempt.
func TestNopBusOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	base := Options{Sequential: true} // bus disabled: the default path
	withBus := func() Options { return Options{Sequential: true, Bus: NewEventBus()} }
	const iters = 40

	analyzeBatch(t, base, iters) // warm up caches and the allocator
	analyzeBatch(t, withBus(), iters)

	var lastBase, lastBus time.Duration
	for attempt := 0; attempt < 4; attempt++ {
		baseBest, busBest := time.Duration(1<<62), time.Duration(1<<62)
		for trial := 0; trial < 5; trial++ {
			if d := analyzeBatch(t, base, iters); d < baseBest {
				baseBest = d
			}
			if d := analyzeBatch(t, withBus(), iters); d < busBest {
				busBest = d
			}
		}
		lastBase, lastBus = baseBest, busBest
		if float64(busBest) <= 1.05*float64(baseBest) {
			return
		}
	}
	t.Errorf("event bus overhead above 5%%: disabled %v, enabled idle bus %v per %d analyses",
		lastBase, lastBus, iters)
}

// TestDisabledBusZeroAlloc pins the stronger half of the contract
// directly: publishing into a nil bus and observing into a nil
// histogram must not allocate at all.
func TestDisabledBusZeroAlloc(t *testing.T) {
	var bus *obs.EventBus
	var h *obs.Histogram
	if n := testing.AllocsPerRun(1000, func() {
		if bus.Enabled() {
			bus.Publish(obs.Heartbeat{Conflicts: 1})
		}
		h.Observe(3.5)
	}); n != 0 {
		t.Errorf("disabled telemetry path allocates %.1f times per publish, want 0", n)
	}
}

// BenchmarkAnalyzeTracing reports the cost of each tracing mode on the
// FPS pipeline; "none" and "nop" must coincide, "json" shows the price
// of recording.
func BenchmarkAnalyzeTracing(b *testing.B) {
	modes := []struct {
		name string
		opts func() Options
	}{
		{"none", func() Options { return Options{Sequential: true} }},
		{"nop", func() Options { return Options{Sequential: true, Tracer: obs.Nop()} }},
		{"json", func() Options { return Options{Sequential: true, Tracer: NewJSONTracer()} }},
		{"bus", func() Options { return Options{Sequential: true, Bus: NewEventBus()} }},
	}
	ctx := context.Background()
	tree := ExampleFPS()
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(ctx, tree, mode.opts()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
