package obs

import "time"

// SolverStats aggregates the work counters of one MaxSAT engine run —
// the per-call statistics the MaxSAT-evaluation literature uses to
// characterise solvers. Engines fill it in even when interrupted, so
// the portfolio can report what every member did, including losers.
type SolverStats struct {
	// SATCalls counts oracle invocations (successive SAT calls for the
	// SAT-backed engines; 0 for branch-and-bound).
	SATCalls int64 `json:"satCalls"`
	// Conflicts, Decisions, Propagations, Restarts, LearntClauses and
	// DeletedClauses sum the CDCL counters over all SAT calls. For
	// branch-and-bound, Decisions counts branch assignments,
	// Propagations unit propagations and Conflicts dead ends.
	Conflicts      int64 `json:"conflicts"`
	Decisions      int64 `json:"decisions"`
	Propagations   int64 `json:"propagations"`
	Restarts       int64 `json:"restarts"`
	LearntClauses  int64 `json:"learntClauses"`
	DeletedClauses int64 `json:"deletedClauses"`
	// Bounds is the cost-bound trajectory: how the engine closed in on
	// the optimum, one step per bound improvement. Steps carry the
	// recording engine's name, so trajectories merged by Add stay
	// separable into per-engine series.
	Bounds []BoundStep `json:"bounds,omitempty"`

	// engine names the run for BoundStep tagging; set by Start or
	// TagEngine, never serialised (each step carries its own copy).
	engine string
	// t0 anchors BoundStep wall-clock stamps; zero means "first
	// RecordBound starts the clock".
	t0 time.Time
}

// BoundStep is one point of an engine's cost-bound trajectory.
type BoundStep struct {
	// Engine names the engine that recorded the step, so trajectories
	// aggregated across portfolio members remain plottable per engine.
	Engine string `json:"engine,omitempty"`
	// Call is the engine's progress index when the bound moved: the
	// SAT-call count for SAT-backed engines, the decision count for
	// branch-and-bound.
	Call int64 `json:"call"`
	// Lower is the best proven lower bound on the optimum so far.
	Lower int64 `json:"lower"`
	// Upper is the best model cost found so far; -1 means no model yet.
	Upper int64 `json:"upper"`
	// AtMS is the wall-clock offset of the step in milliseconds since
	// the engine started, aligning trajectories from stats, JSON traces
	// and the /events stream on one time axis.
	AtMS float64 `json:"atMillis"`
}

// Start names the run and starts its trajectory clock; call it at
// engine entry so BoundSteps carry the engine tag and a wall-clock
// offset.
func (s *SolverStats) Start(engine string) {
	s.engine = engine
	s.t0 = time.Now()
}

// RecordBound appends a trajectory step, stamped with the engine name
// and the milliseconds since Start (the first step starts the clock if
// Start was never called).
func (s *SolverStats) RecordBound(call, lower, upper int64) {
	now := time.Now()
	if s.t0.IsZero() {
		s.t0 = now
	}
	s.Bounds = append(s.Bounds, BoundStep{
		Engine: s.engine,
		Call:   call,
		Lower:  lower,
		Upper:  upper,
		AtMS:   sinceMillis(s.t0, now),
	})
}

// TagEngine renames the run and restamps every recorded step: a
// portfolio member may be registered under a name its algorithm does
// not know (a custom registration such as a test fake), so the
// portfolio retags collected stats after the race.
func (s *SolverStats) TagEngine(engine string) {
	s.engine = engine
	for i := range s.Bounds {
		s.Bounds[i].Engine = engine
	}
}

// Engine returns the run's engine tag.
func (s *SolverStats) Engine() string { return s.engine }

// BoundTraffic counts cooperative bound-sharing events in a portfolio
// race: how often engines published improving models and lower bounds
// through the shared bound manager, and whether the race was closed by
// the bounds meeting (lower ≥ upper) rather than by a single engine
// finishing. The per-engine bound trajectories live in
// SolverStats.Bounds; this is the cross-engine traffic summary.
type BoundTraffic struct {
	// ModelsPublished counts PublishModel calls across all engines.
	ModelsPublished int64 `json:"modelsPublished"`
	// ModelsImproved counts the publications that lowered the global
	// upper bound (the rest arrived too late to matter).
	ModelsImproved int64 `json:"modelsImproved"`
	// LowerBoundsPublished counts PublishLower calls across all engines.
	LowerBoundsPublished int64 `json:"lowerBoundsPublished"`
	// LowerBoundsImproved counts the publications that raised the global
	// lower bound.
	LowerBoundsImproved int64 `json:"lowerBoundsImproved"`
	// RaceClosedByBounds reports that the race terminated because the
	// shared lower bound met the shared upper bound — a cooperative
	// optimality proof no single engine completed on its own.
	RaceClosedByBounds bool `json:"raceClosedByBounds,omitempty"`
}

// Add accumulates another run's counters into s. Bound trajectories
// are concatenated, but each step keeps its engine tag, so the merged
// series separates back into per-engine trajectories (interleaving
// untagged steps from different engines would yield a meaningless
// non-monotone series). Useful for aggregating across portfolio
// members or successive analyses.
func (s *SolverStats) Add(o SolverStats) {
	s.SATCalls += o.SATCalls
	s.Conflicts += o.Conflicts
	s.Decisions += o.Decisions
	s.Propagations += o.Propagations
	s.Restarts += o.Restarts
	s.LearntClauses += o.LearntClauses
	s.DeletedClauses += o.DeletedClauses
	s.Bounds = append(s.Bounds, o.Bounds...)
}
