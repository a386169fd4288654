package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"sync"
	"time"
)

// Server is the embeddable telemetry endpoint, and the repo's one
// pprof server, behind the CLIs' --obs-listen flag and mpmcsd:
//
//	/metrics       Prometheus text format 0.0.4 (counters and
//	               histograms, plus the bus's own health gauges)
//	/events        Server-Sent Events stream of live solver events —
//	               the bound trajectory as it converges
//	/healthz       liveness probe
//	/debug/pprof/* the standard profiling handlers
//
// A Server with a nil Metrics or nil EventBus still serves: /metrics
// is then empty and /events only sends keepalives. Create with
// NewServer, start with Start, stop with Close; Handler exposes the
// mux for mounting into an existing server instead.
type Server struct {
	metrics *Metrics
	bus     *EventBus

	// KeepAlive is the SSE comment-ping interval keeping idle
	// connections open through proxies; set before Start/Handler.
	KeepAlive time.Duration

	mu  sync.Mutex
	srv *http.Server // guarded by mu
	ln  net.Listener // guarded by mu
	wg  sync.WaitGroup
}

// NewServer returns an unstarted telemetry server over the given
// registry and bus (either may be nil).
func NewServer(m *Metrics, bus *EventBus) *Server {
	return &Server{metrics: m, bus: bus, KeepAlive: 15 * time.Second}
}

// Handler returns the telemetry mux, for embedding into an existing
// http.Server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/events", s.handleEvents)
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

// Start listens on addr (e.g. ":9090" or "127.0.0.1:0") and serves the
// telemetry endpoints until Close. It returns the bound address, so
// ":0" callers learn the chosen port.
func (s *Server) Start(addr string) (boundAddr string, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: telemetry listen on %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	s.srv, s.ln = srv, ln
	s.mu.Unlock()
	s.wg.Add(1)
	//lint:ignore goroutinewait server goroutine lives until Close shuts the listener; Close joins it via wg
	go func() {
		defer s.wg.Done()
		srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	}()
	return ln.Addr().String(), nil
}

// Close stops the listener, disconnects every in-flight request
// (including blocked SSE streams) and waits for the serve goroutine to
// exit. Safe to call without Start and more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.srv, s.ln = nil, nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	err := srv.Close() // Close (not Shutdown): SSE streams never drain on their own
	s.wg.Wait()
	return err
}

// handleMetrics serves the Prometheus exposition, appending the bus's
// own health as gauges so scrapers can watch for event loss.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w) //nolint:errcheck // client gone mid-write
	if s.bus.Enabled() {
		fmt.Fprintf(w, "# TYPE obs_bus_events_published counter\nobs_bus_events_published %d\n", s.bus.Published())
		fmt.Fprintf(w, "# TYPE obs_bus_events_dropped counter\nobs_bus_events_dropped %d\n", s.bus.Dropped())
		fmt.Fprintf(w, "# TYPE obs_bus_subscribers gauge\nobs_bus_subscribers %d\n", s.bus.Subscribers())
		fmt.Fprintf(w, "# TYPE obs_bus_queue_depth gauge\nobs_bus_queue_depth %d\n", s.bus.QueueDepth())
	}
}

// handleEvents streams the bus as Server-Sent Events: one frame per
// Event ("event: <kind>", "data: <envelope JSON>", "id: <seq>"),
// starting with the replay ring so late subscribers see the current
// trajectory. Keepalive comment lines flow while the solver is quiet.
// The stream ends when the client disconnects or the server closes; a
// subscriber that stops reading loses events (bus drop policy) but
// never blocks the solver.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
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

	sub := s.bus.Subscribe(256)
	if sub != nil {
		defer sub.Close()
	}

	keepAlive := s.KeepAlive
	if keepAlive <= 0 {
		keepAlive = 15 * time.Second
	}
	ticker := time.NewTicker(keepAlive)
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
