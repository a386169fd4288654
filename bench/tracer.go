package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpmcs4fta/internal/obs"
)

// spanAgg is the benchmark's aggregating obs.Tracer. It keeps every
// span duration in memory, keyed by the span's path from its root
// ("analyze/solve/engine:wmsu1"), and the benchmark reads the layers
// out of it when the run ends. Until switched on it hands out the no-op
// span, which keeps an in-process server's set-up out of the trace.
type spanAgg struct {
	on atomic.Bool

	mu   sync.Mutex
	durs map[string][]float64 // guarded by mu; milliseconds per path
}

var _ obs.Tracer = (*spanAgg)(nil)

func newSpanAgg() *spanAgg {
	return &spanAgg{durs: make(map[string][]float64)}
}

// StartSpan implements obs.Tracer.
func (a *spanAgg) StartSpan(name string) obs.Span {
	if a == nil || !a.on.Load() {
		return obs.NopSpan()
	}
	return &aggSpan{agg: a, path: name, start: time.Now()}
}

// recording reports whether ops should currently be traced.
func (a *spanAgg) recording() bool { return a != nil && a.on.Load() }

// observe records a duration the benchmark timed itself around a
// public call ("bench:parse"); it is a no-op while tracing is off.
func (a *spanAgg) observe(path string, d time.Duration) {
	if !a.recording() {
		return
	}
	a.record(path, d)
}

func (a *spanAgg) record(path string, d time.Duration) {
	a.mu.Lock()
	a.durs[path] = append(a.durs[path], ms(d))
	a.mu.Unlock()
}

// named returns every duration recorded under a path whose last element
// is name, wherever the span sat in its tree.
func (a *spanAgg) named(name string) []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []float64
	for path, d := range a.durs {
		if path == name || strings.HasSuffix(path, "/"+name) {
			out = append(out, d...)
		}
	}
	return out
}

// children sums the durations of the direct children of every root span
// called root: the layers that partition the root's time.
func (a *spanAgg) children(root string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := 0.0
	for path, d := range a.durs {
		if rest, ok := strings.CutPrefix(path, root+"/"); ok && !strings.Contains(rest, "/") {
			total += sum(d)
		}
	}
	return total
}

// aggSpan is one recording span of a spanAgg.
type aggSpan struct {
	agg   *spanAgg
	path  string
	start time.Time
}

func (s *aggSpan) StartSpan(name string) obs.Span {
	return &aggSpan{agg: s.agg, path: s.path + "/" + name, start: time.Now()}
}

// Recording is true so the pipeline hands the span to the portfolio,
// which then records one child span per engine.
func (s *aggSpan) Recording() bool          { return true }
func (s *aggSpan) SetInt(string, int64)     {}
func (s *aggSpan) SetFloat(string, float64) {}
func (s *aggSpan) SetString(string, string) {}
func (s *aggSpan) SetBool(string, bool)     {}
func (s *aggSpan) SetValue(string, any)     {}
func (s *aggSpan) End()                     { s.agg.record(s.path, time.Since(s.start)) }
