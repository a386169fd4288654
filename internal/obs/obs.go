// Package obs is the repo's zero-dependency observability layer:
// hierarchical tracing for the six-step MPMCS pipeline, per-engine
// solver telemetry types, a counter and histogram registry exported in
// the Prometheus text format, live telemetry (EventBus, Server) and a
// CPU-profile helper.
//
// The design rule is that observability must cost nothing when unused:
// the no-op Tracer and Span are zero-size values whose method calls
// neither allocate nor synchronise, so the pipeline can be
// instrumented unconditionally. Callers that compute attribute values
// eagerly should guard the computation with Span.Recording.
package obs

import (
	"context"
	"time"
)

// Tracer produces root spans. Implementations must be safe for
// concurrent use; the portfolio writes spans from several goroutines.
type Tracer interface {
	// StartSpan opens a root span with the given name.
	StartSpan(name string) Span
}

// Span is one timed region of work. Spans nest: children opened via
// StartSpan are recorded under their parent. Attribute setters may be
// called until End; calls after End are ignored by the no-op span and
// best-effort for recording spans.
type Span interface {
	// StartSpan opens a child span.
	StartSpan(name string) Span
	// Recording reports whether the span actually records anything.
	// Use it to skip computing expensive attribute values.
	Recording() bool
	// SetInt attaches an integer attribute.
	SetInt(key string, v int64)
	// SetFloat attaches a float attribute.
	SetFloat(key string, v float64)
	// SetString attaches a string attribute.
	SetString(key string, v string)
	// SetBool attaches a boolean attribute.
	SetBool(key string, v bool)
	// SetValue attaches an arbitrary JSON-marshalable attribute (used
	// for structured values like bound trajectories). Boxing the value
	// may allocate — guard with Recording on hot paths.
	SetValue(key string, v any)
	// End closes the span, fixing its duration.
	End()
}

// SpanStarter is the common capability of Tracer (root spans) and Span
// (child spans); pipeline stages accept it so they can run both at the
// top level and nested under a caller's span.
type SpanStarter interface {
	StartSpan(name string) Span
}

// nopTracer and nopSpan are the disabled-path implementations. Both
// are zero-size, so storing them in an interface does not allocate.
type (
	nopTracer struct{}
	nopSpan   struct{}
)

// Nop returns the no-op Tracer.
func Nop() Tracer { return nopTracer{} }

// NopSpan returns the no-op Span.
func NopSpan() Span { return nopSpan{} }

func (nopTracer) StartSpan(string) Span { return nopSpan{} }

func (nopSpan) StartSpan(string) Span    { return nopSpan{} }
func (nopSpan) Recording() bool          { return false }
func (nopSpan) SetInt(string, int64)     {}
func (nopSpan) SetFloat(string, float64) {}
func (nopSpan) SetString(string, string) {}
func (nopSpan) SetBool(string, bool)     {}
func (nopSpan) SetValue(string, any)     {}
func (nopSpan) End()                     {}

// ctxKey keys the span stored in a context.
type ctxKey struct{}

// ContextWithSpan returns a context carrying the span, for plumbing
// through APIs that take a context but no explicit span (the portfolio
// and its engines). Only call it when the span is recording: the
// derived context allocates.
func ContextWithSpan(ctx context.Context, s Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the span carried by the context, or the
// no-op span when none is present.
func SpanFromContext(ctx context.Context) Span {
	if s, ok := ctx.Value(ctxKey{}).(Span); ok {
		return s
	}
	return nopSpan{}
}

// sinceMillis converts a duration since t0 to fractional milliseconds,
// the unit used throughout the JSON artefacts.
func sinceMillis(t0, t time.Time) float64 {
	return float64(t.Sub(t0).Microseconds()) / 1000
}
