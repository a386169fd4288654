package portfolio_test

import (
	"context"
	"slices"
	"testing"

	"mpmcs4fta/internal/core"
	"mpmcs4fta/internal/gen"
	"mpmcs4fta/internal/maxsat"
	"mpmcs4fta/internal/obs"
	"mpmcs4fta/internal/portfolio"
)

// TestSolveSequentialStopsWhenBoundsClose: on the FPS Step-4 instance
// the stratified WMSU1 engine returns a FEASIBLE incumbent whose cost
// its own core payments already meet, which closes the shared bounds
// and cancels the run context. A sequential race must stop there and
// report that engine's answer as OPTIMAL; starting the later engines on
// the dead context would hand the win to whichever solves before its
// first poll.
func TestSolveSequentialStopsWhenBoundsClose(t *testing.T) {
	steps, err := core.BuildSteps(gen.FPS(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	order := []string{"wmsu1-strat", "linear-su", "branch-bound"}
	var engines []portfolio.Engine
	for _, e := range portfolio.DefaultEngines() {
		if slices.Contains(order, e.Name) {
			engines = append(engines, e)
		}
	}
	if !slices.EqualFunc(engines, order, func(e portfolio.Engine, name string) bool { return e.Name == name }) {
		t.Fatalf("DefaultEngines lacks %v in that order", order)
	}

	bus := obs.NewEventBus()
	ctx := obs.ContextWithBus(context.Background(), bus)
	res, report, err := portfolio.SolveSequential(ctx, steps.Instance, engines)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != maxsat.Optimal || report.Winner != "wmsu1-strat" {
		t.Fatalf("got %v from %q, want OPTIMAL from wmsu1-strat", res.Status, report.Winner)
	}
	if !report.Coop.RaceClosedByBounds {
		t.Error("the race did not close by shared bounds; the test no longer exercises the closed-bounds stop")
	}
	for _, ev := range bus.Replay() {
		if started, ok := ev.Data.(obs.EngineStarted); ok && started.Engine != "wmsu1-strat" {
			t.Errorf("engine %s started after the bounds closed", started.Engine)
		}
	}
	for _, rep := range report.Engines[1:] {
		if rep.Elapsed != 0 || rep.Status != maxsat.Unknown || rep.Err != "" {
			t.Errorf("engine %s ran after the bounds closed: %+v", rep.Name, rep)
		}
	}
}
