package obs

import "sync"

// Metrics is a small named-metric registry — counters and histograms —
// the process-level aggregate view that complements per-analysis
// traces. WritePrometheus is its one export format. All methods are
// safe for concurrent use and safe on a nil receiver (a nil *Metrics
// is the disabled state, so callers can record unconditionally). Hot
// paths should look up a *Histogram handle once (Histogram) and
// Observe on it directly rather than going through the registry map
// per observation.
type Metrics struct {
	mu         sync.Mutex
	counters   map[string]int64      // guarded by mu
	histograms map[string]*Histogram // guarded by mu; values are internally atomic
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters:   make(map[string]int64),
		histograms: make(map[string]*Histogram),
	}
}

// Add increments the named counter by delta. No-op on a nil receiver.
func (m *Metrics) Add(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// Get returns the named counter's value (0 when absent or nil).
func (m *Metrics) Get(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use. Subsequent calls ignore the bounds and
// return the existing histogram, so concurrent callers agree on one
// instance. Returns nil on a nil receiver — and Histogram.Observe is
// nil-safe, so the handle can be used unconditionally.
func (m *Metrics) Histogram(name string, bounds []float64) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.histograms[name]
	if !ok {
		h = NewHistogram(bounds)
		m.histograms[name] = h
	}
	return h
}

// Snapshot returns a copy of all counters.
func (m *Metrics) Snapshot() map[string]int64 {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.counters))
	for k, v := range m.counters {
		out[k] = v
	}
	return out
}

// histogramSnapshot returns the histogram handles under the lock; the
// handles themselves are safe to read concurrently.
func (m *Metrics) histogramSnapshot() map[string]*Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]*Histogram, len(m.histograms))
	for k, v := range m.histograms {
		out[k] = v
	}
	return out
}
