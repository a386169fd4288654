package portfolio

import (
	"sync"

	"mpmcs4fta/internal/maxsat"
	"mpmcs4fta/internal/obs"
)

// Bounds is the shared bound manager of a cooperative portfolio race:
// one global incumbent cost (the cheapest published model's — the
// upper bound on the optimum) and one global proven lower bound,
// written and read concurrently by every engine through the
// maxsat.Progress views handed out by ForEngine. When the lower bound
// meets the upper bound the optimum is pinned, so the manager fires its
// close callback once — the portfolio uses it to cancel the remaining
// engines and synthesize an Optimal answer no single member proved
// alone.
//
// Bounds only ever tightens: the upper bound monotonically decreases,
// the lower bound monotonically increases. In particular an engine
// reading BestKnown can never be handed a looser bound than one it saw
// before — which is what makes feeding the value into
// sat.SetBudgetBound (which rejects raising) safe.
type Bounds struct {
	mu      sync.Mutex
	ubSet   bool             // guarded by mu
	ub      int64            // guarded by mu
	lb      int64            // guarded by mu
	closed  bool             // guarded by mu
	onClose func()           // guarded by mu
	traffic obs.BoundTraffic // guarded by mu

	// bus receives a BoundImproved event for every actual tightening.
	// Events are published while holding mu — the bus has its own
	// independent lock and never calls back — so the event stream is
	// monotone: UB frames never increase, LB frames never decrease,
	// even with every engine publishing concurrently.
	bus *obs.EventBus
}

// NewBounds returns an empty bound manager. onClose (may be nil) is
// called exactly once, without the internal lock held, when the proven
// lower bound reaches the incumbent's cost.
func NewBounds(onClose func()) *Bounds {
	return &Bounds{onClose: onClose}
}

// SetEventBus attaches a live-telemetry bus (nil detaches). Call
// before the race starts; publications are not synchronised with it.
func (b *Bounds) SetEventBus(bus *obs.EventBus) { b.bus = bus }

// publishModel records a feasible model's cost if it improves the
// incumbent. The model itself is not kept: each engine returns its own
// best model, and the race's answer comes from those outcomes.
func (b *Bounds) publishModel(owner string, cost int64) {
	b.mu.Lock()
	b.traffic.ModelsPublished++
	improved := !b.ubSet || cost < b.ub
	if improved {
		b.ubSet = true
		b.ub = cost
		b.traffic.ModelsImproved++
	}
	fire := b.checkMeetLocked()
	if improved && b.bus.Enabled() {
		b.bus.Publish(obs.BoundImproved{Engine: owner, Lower: b.lb, Upper: b.ub, Closed: fire != nil})
	}
	b.mu.Unlock()
	if fire != nil {
		fire()
	}
}

// publishLower records a proven lower bound if it improves the global
// one.
func (b *Bounds) publishLower(owner string, lb int64) {
	b.mu.Lock()
	b.traffic.LowerBoundsPublished++
	improved := lb > b.lb
	if improved {
		b.lb = lb
		b.traffic.LowerBoundsImproved++
	}
	fire := b.checkMeetLocked()
	if improved && b.bus.Enabled() {
		upper := b.ub
		if !b.ubSet {
			upper = -1
		}
		b.bus.Publish(obs.BoundImproved{Engine: owner, Lower: b.lb, Upper: upper, Closed: fire != nil})
	}
	b.mu.Unlock()
	if fire != nil {
		fire()
	}
}

// checkMeetLocked detects the bounds meeting and arms the one-shot
// close callback; the caller invokes the returned function after
// releasing the lock.
func (b *Bounds) checkMeetLocked() func() {
	if b.closed || !b.ubSet || b.lb < b.ub {
		return nil
	}
	b.closed = true
	b.traffic.RaceClosedByBounds = true
	return b.onClose
}

// BestKnown returns the global incumbent cost; ok is false while no
// model has been published.
func (b *Bounds) BestKnown() (int64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ub, b.ubSet
}

// ProvenLower returns the best global proven lower bound (0 when none
// has been published).
func (b *Bounds) ProvenLower() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lb
}

// Closed reports whether the lower bound has met the upper bound.
func (b *Bounds) Closed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed
}

// Traffic returns a snapshot of the cooperative traffic counters.
func (b *Bounds) Traffic() obs.BoundTraffic {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.traffic
}

// ForEngine returns the named engine's view of the manager: a
// maxsat.Progress whose publications are attributed to that engine.
func (b *Bounds) ForEngine(name string) maxsat.Progress {
	return engineProgress{bounds: b, name: name}
}

// engineProgress tags one engine's Progress calls with its name.
type engineProgress struct {
	bounds *Bounds
	name   string
}

var _ maxsat.Progress = engineProgress{}

func (p engineProgress) PublishModel(cost int64, _ []bool) {
	p.bounds.publishModel(p.name, cost)
}

func (p engineProgress) PublishLower(lb int64) {
	p.bounds.publishLower(p.name, lb)
}

func (p engineProgress) BestKnown() (int64, bool) { return p.bounds.BestKnown() }

func (p engineProgress) ProvenLower() int64 { return p.bounds.ProvenLower() }
