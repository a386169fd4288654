package sat

import (
	"time"

	"mpmcs4fta/internal/obs"
)

// Telemetry configures live instrumentation of the search: restart
// events and periodic heartbeats on the bus, plus histograms of learnt
// conflict-clause lengths and trail depths. All fields are optional —
// the bus and histograms are nil-safe — and a nil *Telemetry (the
// default) keeps the search loop at one pointer comparison of
// overhead, preserving the zero-cost-when-disabled rule.
type Telemetry struct {
	// Bus receives RestartFired and Heartbeat events.
	Bus *obs.EventBus
	// Engine names this solver in published events.
	Engine string
	// HeartbeatEvery rate-limits Heartbeat events; default 500ms. The
	// clock is only consulted at the search loop's existing
	// cancellation-poll boundaries (every 1024 conflicts or decisions),
	// so heartbeats cost the hot path nothing between polls.
	HeartbeatEvery time.Duration
	// LearntLen, when set, records the length of every learnt conflict
	// clause.
	LearntLen *obs.Histogram
	// TrailDepth, when set, records the assignment-trail depth at each
	// heartbeat interval, whether or not a bus is attached.
	TrailDepth *obs.Histogram
}

// SetTelemetry installs (or with nil removes) live instrumentation.
// Call before Solve; the solver keeps the pointer.
func (s *Solver) SetTelemetry(t *Telemetry) {
	s.tel = t
	s.lastBeat = time.Time{}
}

// maybeHeartbeat samples the trail depth and publishes a Heartbeat if
// telemetry is on and the rate-limit interval has passed. Called only
// at the search loop's poll boundaries.
func (s *Solver) maybeHeartbeat() {
	t := s.tel
	if t == nil {
		return
	}
	every := t.HeartbeatEvery
	if every <= 0 {
		every = 500 * time.Millisecond
	}
	now := time.Now()
	if s.lastBeat.IsZero() {
		// First poll only starts the clock: a heartbeat this early
		// would just duplicate the engine-started event.
		s.lastBeat = now
		return
	}
	if now.Sub(s.lastBeat) < every {
		return
	}
	s.lastBeat = now
	t.TrailDepth.Observe(float64(len(s.trail)))
	if !t.Bus.Enabled() {
		return
	}
	t.Bus.Publish(obs.Heartbeat{
		Engine:       t.Engine,
		Conflicts:    s.stats.Conflicts,
		Decisions:    s.stats.Decisions,
		Propagations: s.stats.Propagations,
		Restarts:     s.stats.Restarts,
		Learnt:       s.stats.Learnt,
		TrailDepth:   len(s.trail),
		LearntDB:     len(s.learnts),
		ArenaWords:   s.ca.words(),
		ClauseGCs:    s.stats.ClauseGCs,
	})
}
