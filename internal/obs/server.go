package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	httppprof "net/http/pprof"
	"time"
)

// SSEKeepAlive is the interval of the comment pings that keep an idle
// event stream open through proxies.
const SSEKeepAlive = 15 * time.Second

// NewHandler returns the telemetry endpoints over a metrics registry
// and an event bus:
//
//	/metrics       Prometheus text format 0.0.4 (counters and
//	               histograms, plus the bus's own health gauges)
//	/events        Server-Sent Events stream of live solver events —
//	               the bound trajectory as it converges
//	/healthz       liveness probe
//	/debug/pprof/* the standard profiling handlers
//
// Either may be nil: /metrics is then empty and /events only sends
// keepalives. The handler opens no listener; mpmcsd mounts it beside
// its solve endpoints.
func NewHandler(m *Metrics, bus *EventBus) http.Handler {
	t := &telemetry{metrics: m, bus: bus}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", t.handleMetrics)
	mux.HandleFunc("/events", t.handleEvents)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

type telemetry struct {
	metrics *Metrics
	bus     *EventBus
}

// handleMetrics serves the Prometheus exposition, appending the bus's
// own health as gauges so scrapers can watch for event loss.
func (t *telemetry) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	t.metrics.WritePrometheus(w) //nolint:errcheck // client gone mid-write
	if t.bus.Enabled() {
		fmt.Fprintf(w, "# TYPE obs_bus_events_published counter\nobs_bus_events_published %d\n", t.bus.Published())
		fmt.Fprintf(w, "# TYPE obs_bus_events_dropped counter\nobs_bus_events_dropped %d\n", t.bus.Dropped())
		fmt.Fprintf(w, "# TYPE obs_bus_subscribers gauge\nobs_bus_subscribers %d\n", t.bus.Subscribers())
		fmt.Fprintf(w, "# TYPE obs_bus_queue_depth gauge\nobs_bus_queue_depth %d\n", t.bus.QueueDepth())
	}
}

// handleEvents streams the bus as Server-Sent Events: one frame per
// Event ("event: <kind>", "data: <envelope JSON>", "id: <seq>"),
// starting with the replay ring so late subscribers see the current
// trajectory. Keepalive comment lines flow while the solver is quiet.
// The stream ends when the client disconnects or the hosting server
// closes the connection; a subscriber that stops reading loses events
// (bus drop policy) but never blocks the solver.
func (t *telemetry) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": mpmcs4fta event stream\n\n")
	flusher.Flush()

	sub := t.bus.Subscribe(256)
	if sub != nil {
		defer sub.Close()
	}

	ticker := time.NewTicker(SSEKeepAlive)
	defer ticker.Stop()

	for {
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case ev, ok := <-sub.Events():
			if !ok {
				return
			}
			if err := WriteSSE(w, ev); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// WriteSSE renders one event as an SSE frame: "event: kind", "id:
// seq" and the event envelope as JSON data. It is the one frame format
// of every event stream, the /events endpoint and mpmcsd's solve
// streams alike.
func WriteSSE(w io.Writer, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Kind, ev.Seq, data)
	return err
}
