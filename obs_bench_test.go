package mpmcs4fta

// Guards the observability acceptance criterion: instrumentation the
// caller did not ask for costs nothing, and an enabled bus stays cheap.
// Both halves are pinned by what the code executes, not by wall-clock
// comparisons that load alone can fail. The tracing half lives in
// internal/core (TestNopTracerGuard: an unset tracer is obs.Nop(),
// whose spans never allocate).

import (
	"context"
	"testing"

	"mpmcs4fta/internal/obs"
)

// TestNopBusOverheadGuard pins what an enabled, idle bus executes: the
// solver's telemetry hooks are compiled into the hot paths
// unconditionally, so the guard checks both how often they publish and
// what one publish costs.
//
//   - An analysis publishes per solve, engine and bound step, never per
//     SAT call, conflict or decision: a sequential FPS analysis emits
//     one solveStarted/solveFinished pair, one engineStarted/
//     engineFinished pair per engine that ran, and at most one
//     boundImproved per step of the winner's bound trajectory.
//   - With no subscribers and a full replay ring, Publish allocates
//     nothing and fans out to no one.
//
// The disabled path, a nil Options.Bus (the default), is pinned by
// TestDisabledBusZeroAlloc.
func TestNopBusOverheadGuard(t *testing.T) {
	bus := NewEventBus()
	sol, err := Analyze(context.Background(), ExampleFPS(), Options{Sequential: true, Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, ev := range bus.Replay() {
		kinds[ev.Kind]++
	}
	if got := int64(len(bus.Replay())); got != bus.Published() {
		t.Fatalf("replay ring holds %d of %d events; the count below would be partial", got, bus.Published())
	}
	if kinds[obs.KindSolveStarted] != 1 || kinds[obs.KindSolveFinished] != 1 {
		t.Errorf("solve lifecycle published %d started, %d finished, want one each: %v",
			kinds[obs.KindSolveStarted], kinds[obs.KindSolveFinished], kinds)
	}
	if started := kinds[obs.KindEngineStarted]; started < 1 || started != kinds[obs.KindEngineFinished] {
		t.Errorf("engine lifecycle published %d started, %d finished, want one pair per engine: %v",
			started, kinds[obs.KindEngineFinished], kinds)
	}
	if steps := len(sol.Stats.Solver.Bounds); kinds[obs.KindBoundImproved] > steps {
		t.Errorf("%d boundImproved events for %d bound steps: a bound hook fires off the trajectory: %v",
			kinds[obs.KindBoundImproved], steps, kinds)
	}
	lifecycle := kinds[obs.KindSolveStarted] + kinds[obs.KindSolveFinished] +
		kinds[obs.KindEngineStarted] + kinds[obs.KindEngineFinished] + kinds[obs.KindBoundImproved]
	if int64(lifecycle) != bus.Published() {
		t.Errorf("an FPS analysis published %d events, %d of them outside the solve, engine and bound lifecycle: %v",
			bus.Published(), bus.Published()-int64(lifecycle), kinds)
	}

	var payload obs.EventPayload = obs.Heartbeat{Conflicts: 1}
	for i := 0; i < obs.DefaultEventRing; i++ {
		bus.Publish(payload) // fill the replay ring
	}
	if n := testing.AllocsPerRun(1000, func() { bus.Publish(payload) }); n != 0 {
		t.Errorf("an idle bus allocates %.1f times per publish, want 0", n)
	}
	if bus.Subscribers() != 0 || bus.Dropped() != 0 || bus.QueueDepth() != 0 {
		t.Errorf("idle bus fanned out: %d subscribers, %d dropped, %d queued",
			bus.Subscribers(), bus.Dropped(), bus.QueueDepth())
	}
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
