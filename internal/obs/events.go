package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// EventBus is the live-telemetry fan-out point: solver layers publish
// typed events (bound improvements, engine lifecycle, restarts,
// heartbeats) and any number of subscribers — SSE streams, terminal
// monitors, tests — consume them concurrently. It complements the
// post-hoc artefacts (spans, SolverStats): the same information, but
// observable while a multi-minute solve is still in flight.
//
// The design rules mirror the tracer's:
//
//   - A nil *EventBus is the disabled state. Every method is safe on a
//     nil receiver and does nothing; publishers guard event
//     construction with Enabled() (the Recording() analogue) so the
//     disabled path neither allocates nor synchronises.
//   - Publishing never blocks on a subscriber. A subscriber whose
//     channel is full loses the event (counted in Dropped); a slow or
//     stuck SSE client can therefore never stall a solver goroutine.
//   - A bounded replay ring keeps the most recent events, so a
//     subscriber that connects mid-solve (or just after it finishes)
//     still sees the recent bound trajectory and the terminal frame.
type EventBus struct {
	t0 time.Time

	mu   sync.Mutex
	seq  uint64          // events published so far; guarded by mu
	subs []*Subscription // guarded by mu
	// ring is the replay buffer. It fills oldest first; once full, a
	// publish overwrites the oldest event at head and advances it, so
	// the events in order are ring[head:] then ring[:head].
	ring    []Event // guarded by mu
	head    int     // guarded by mu
	ringCap int
	dropped int64 // events lost to full subscriber channels; guarded by mu
}

// DefaultEventRing is the replay-ring capacity of NewEventBus.
const DefaultEventRing = 512

// NewEventBus returns an enabled bus whose replay ring keeps the last
// DefaultEventRing events. Its clock (the AtMS stamp) starts now.
func NewEventBus() *EventBus { return NewEventBusRing(DefaultEventRing) }

// NewEventBusRing returns an enabled bus with a replay ring of the
// given capacity (0 disables replay).
func NewEventBusRing(ringCap int) *EventBus {
	if ringCap < 0 {
		ringCap = 0
	}
	return &EventBus{t0: time.Now(), ringCap: ringCap}
}

// Enabled reports whether events are being collected. It is the
// publisher-side guard: skip building payloads when false.
func (b *EventBus) Enabled() bool { return b != nil }

// Publish stamps the payload with a sequence number and the
// milliseconds since the bus was created, appends it to the replay
// ring, and fans it out to every subscriber without blocking. No-op on
// a nil bus.
func (b *EventBus) Publish(p EventPayload) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.seq++
	ev := Event{Seq: b.seq, Kind: p.EventKind(), AtMS: sinceMillis(b.t0, time.Now()), Data: p}
	if len(b.ring) < b.ringCap {
		b.ring = append(b.ring, ev)
	} else if b.ringCap > 0 {
		b.ring[b.head] = ev
		b.head = (b.head + 1) % b.ringCap
	}
	for _, sub := range b.subs {
		select {
		case sub.ch <- ev:
		default:
			sub.dropped.Add(1)
			b.dropped++
		}
	}
	b.mu.Unlock()
}

// Subscribe registers a subscriber with the given channel capacity (a
// non-positive buffer gets a small default). The most recent replay
// events that fit the buffer are delivered immediately, so late
// subscribers see the current trajectory. The caller must Close the
// subscription; an abandoned one silently drops events but costs the
// publishers nothing. Returns nil on a nil bus.
func (b *EventBus) Subscribe(buffer int) *Subscription {
	if b == nil {
		return nil
	}
	if buffer <= 0 {
		buffer = 64
	}
	sub := &Subscription{bus: b, ch: make(chan Event, buffer)}
	b.mu.Lock()
	for i := max(len(b.ring)-buffer, 0); i < len(b.ring); i++ {
		//lint:ignore lockorder the loop sends at most the buffer capacity and the channel is not yet registered, so every send fits without blocking
		sub.ch <- b.ring[(b.head+i)%len(b.ring)] // fits by construction: the channel is empty
	}
	b.subs = append(b.subs, sub)
	b.mu.Unlock()
	return sub
}

// Subscribers returns the number of active subscriptions.
func (b *EventBus) Subscribers() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Published returns the number of events published so far.
func (b *EventBus) Published() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return int64(b.seq)
}

// Dropped returns the number of events lost to full subscriber
// channels, summed over all subscribers (past and present).
func (b *EventBus) Dropped() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// QueueDepth returns the total number of events currently buffered in
// subscriber channels — the live backlog the /metrics endpoint exports
// as a gauge.
func (b *EventBus) QueueDepth() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	depth := 0
	for _, sub := range b.subs {
		depth += len(sub.ch)
	}
	return depth
}

// Replay returns a copy of the replay ring, oldest first.
func (b *EventBus) Replay() []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Event, 0, len(b.ring))
	return append(append(out, b.ring[b.head:]...), b.ring[:b.head]...)
}

// Subscription is one subscriber's view of the bus.
type Subscription struct {
	bus *EventBus
	ch  chan Event
	// closed is set once in Close under the bus lock; Publish holds the
	// same lock, so a send on the closed channel is impossible. (The
	// guard is cross-object — bus.mu — which the guardedby annotation
	// form cannot express.)
	closed  bool
	dropped atomic.Int64 // events this subscriber lost to a full channel
}

// Events returns the subscriber's channel. It is closed by Close, so
// ranging over it terminates once the subscription ends. Returns nil
// on a nil subscription.
func (s *Subscription) Events() <-chan Event {
	if s == nil {
		return nil
	}
	return s.ch
}

// Dropped returns the number of events this subscriber lost to a full
// channel.
func (s *Subscription) Dropped() int64 {
	if s == nil {
		return 0
	}
	return s.dropped.Load()
}

// Close unregisters the subscription and closes its channel. Safe to
// call more than once and on a nil subscription. Publishes and Close
// both run under the bus lock, so a publisher can never send on the
// closed channel.
func (s *Subscription) Close() {
	if s == nil {
		return
	}
	b := s.bus
	b.mu.Lock()
	if !s.closed {
		s.closed = true
		for i, sub := range b.subs {
			if sub == s {
				b.subs = append(b.subs[:i], b.subs[i+1:]...)
				break
			}
		}
		close(s.ch)
	}
	b.mu.Unlock()
}

// busKey keys the event bus stored in a context.
type busKey struct{}

// ContextWithBus returns a context carrying the bus, for plumbing into
// APIs that take a context but no explicit bus (the portfolio and its
// engines). Only call it when the bus is enabled: the derived context
// allocates.
func ContextWithBus(ctx context.Context, b *EventBus) context.Context {
	return context.WithValue(ctx, busKey{}, b)
}

// BusFromContext returns the bus carried by the context, or nil (the
// disabled bus) when none is present.
func BusFromContext(ctx context.Context) *EventBus {
	if b, ok := ctx.Value(busKey{}).(*EventBus); ok {
		return b
	}
	return nil
}

// engineNameKey keys the registered engine name stored in a context.
type engineNameKey struct{}

// ContextWithEngineName returns a context naming the engine run it
// feeds: a portfolio member may be registered under a name its
// algorithm does not know (a custom registration such as a test fake),
// and this override makes live events and stats carry that name.
// Only set it when telemetry is on: the derived context allocates.
func ContextWithEngineName(ctx context.Context, name string) context.Context {
	return context.WithValue(ctx, engineNameKey{}, name)
}

// EngineNameFromContext returns the engine-name override, or "".
func EngineNameFromContext(ctx context.Context) string {
	if n, ok := ctx.Value(engineNameKey{}).(string); ok {
		return n
	}
	return ""
}

// metricsKey keys the metrics registry stored in a context.
type metricsKey struct{}

// ContextWithMetrics returns a context carrying the registry, so that
// solver layers below the Options plumbing (the MaxSAT engines) can
// record per-call histograms. Only call it with a non-nil registry:
// the derived context allocates.
func ContextWithMetrics(ctx context.Context, m *Metrics) context.Context {
	return context.WithValue(ctx, metricsKey{}, m)
}

// MetricsFromContext returns the registry carried by the context, or
// nil (the disabled registry) when none is present.
func MetricsFromContext(ctx context.Context) *Metrics {
	if m, ok := ctx.Value(metricsKey{}).(*Metrics); ok {
		return m
	}
	return nil
}

// Event is the envelope every published payload is wrapped in: a
// monotone sequence number, the payload kind, the bus-relative
// wall-clock stamp in milliseconds, and the payload itself. It is the
// JSON document of one SSE frame on the /events endpoint.
type Event struct {
	Seq  uint64       `json:"seq"`
	Kind string       `json:"kind"`
	AtMS float64      `json:"atMillis"`
	Data EventPayload `json:"data"`
}

// EventPayload is implemented by every typed solver event.
type EventPayload interface {
	// EventKind returns the payload's wire name (the SSE event type).
	EventKind() string
}

// Event kinds, as they appear in Event.Kind and SSE "event:" lines.
const (
	KindSolveStarted   = "solveStarted"
	KindSolveFinished  = "solveFinished"
	KindEngineStarted  = "engineStarted"
	KindEngineFinished = "engineFinished"
	KindBoundImproved  = "boundImproved"
	KindRestartFired   = "restartFired"
	KindHeartbeat      = "heartbeat"
)

// SolveStarted opens one MaxSAT solve: the instance dimensions the
// portfolio is about to race on.
type SolveStarted struct {
	Vars        int `json:"vars"`
	HardClauses int `json:"hardClauses"`
	SoftClauses int `json:"softClauses"`
	Engines     int `json:"engines"`
}

// EventKind implements EventPayload.
func (SolveStarted) EventKind() string { return KindSolveStarted }

// SolveFinished is the terminal frame of one solve: the outcome every
// /events subscriber waits for.
type SolveFinished struct {
	Status     string  `json:"status"`
	Winner     string  `json:"winner,omitempty"`
	Cost       int64   `json:"cost"`
	LowerBound int64   `json:"lowerBound"`
	ElapsedMS  float64 `json:"elapsedMillis"`
	Err        string  `json:"err,omitempty"`
}

// EventKind implements EventPayload.
func (SolveFinished) EventKind() string { return KindSolveFinished }

// EngineStarted marks one portfolio member entering the race.
type EngineStarted struct {
	Engine string `json:"engine"`
}

// EventKind implements EventPayload.
func (EngineStarted) EventKind() string { return KindEngineStarted }

// EngineFinished marks one portfolio member leaving the race.
type EngineFinished struct {
	Engine     string `json:"engine"`
	Status     string `json:"status"`
	Cost       int64  `json:"cost"`
	LowerBound int64  `json:"lowerBound"`
	Err        string `json:"err,omitempty"`
}

// EventKind implements EventPayload.
func (EngineFinished) EventKind() string { return KindEngineFinished }

// BoundImproved reports the cooperative race's global bounds after an
// improvement: Upper only ever decreases (-1 until the first model),
// Lower only ever increases. Published from the shared bound manager
// under its lock, so the event stream is monotone even with all
// engines publishing concurrently.
type BoundImproved struct {
	// Engine names the publisher whose model or proof moved the bound.
	Engine string `json:"engine"`
	// Lower is the global proven lower bound on the optimum.
	Lower int64 `json:"lower"`
	// Upper is the global incumbent cost; -1 before any model.
	Upper int64 `json:"upper"`
	// Closed marks the improvement that made the bounds meet — the
	// cooperative optimality proof.
	Closed bool `json:"closed,omitempty"`
}

// EventKind implements EventPayload.
func (BoundImproved) EventKind() string { return KindBoundImproved }

// RestartFired reports one CDCL restart.
type RestartFired struct {
	Engine    string `json:"engine"`
	Restarts  int64  `json:"restarts"`
	Conflicts int64  `json:"conflicts"`
}

// EventKind implements EventPayload.
func (RestartFired) EventKind() string { return KindRestartFired }

// Heartbeat is a periodic snapshot of a running engine's work
// counters (since the engine's last counter reset — for the SAT-backed
// engines, the current SAT call).
type Heartbeat struct {
	Engine       string `json:"engine"`
	Conflicts    int64  `json:"conflicts"`
	Decisions    int64  `json:"decisions"`
	Propagations int64  `json:"propagations"`
	Restarts     int64  `json:"restarts"`
	Learnt       int64  `json:"learnt"`
	// TrailDepth is the current assignment-trail length (the
	// propagation queue's high-water view of search depth).
	TrailDepth int `json:"trailDepth"`
	// LearntDB is the number of learnt clauses currently retained
	// (after deletions), as opposed to Learnt, the cumulative count.
	LearntDB int `json:"learntDB,omitempty"`
	// ArenaWords is the clause arena's footprint in 4-byte words — the
	// whole clause database, live and not-yet-collected.
	ArenaWords int `json:"arenaWords,omitempty"`
	// ClauseGCs counts compactions of the clause arena so far.
	ClauseGCs int64 `json:"clauseGCs,omitempty"`
}

// EventKind implements EventPayload.
func (Heartbeat) EventKind() string { return KindHeartbeat }
