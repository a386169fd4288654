// Package serve implements mpmcsd, the long-running analysis service:
// fault trees come in over HTTP as JSON, analyses run on the request
// goroutine under a per-request deadline, at most Config.Workers at a
// time, live bound trajectories stream out as Server-Sent Events, and
// definitive results land in a content-addressed cache keyed by the
// canonical tree hash (ft.CanonicalHash), so re-submitting the same
// tree — under any gate renaming or child reordering — is a lookup,
// not a solve.
//
// Endpoints:
//
//	POST /v1/analyze           body: fault tree JSON → MPMCS document
//	POST /v1/topk?k=N          body: fault tree JSON → ranked cut sets
//	GET  /v1/solutions/{hash}  cache lookup by canonical hash (?k=N)
//	GET  /healthz              liveness probe
//	GET  /metrics              Prometheus counters (cache hits, ...)
//	GET  /events               global SSE stream of all solver events
//	GET  /debug/pprof/*        standard profiling handlers
//
// Solve endpoints accept ?timeoutMillis=N (clamped to the server's
// maximum) and stream per-request SSE (bound improvements as they
// happen, then a terminal "solution" frame) when the client asks with
// Accept: text/event-stream or ?stream=1. Response status strings and
// HTTP codes follow the taxonomy table in status.go.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"mpmcs4fta/internal/core"
	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/obs"
)

// maxTreeBytes bounds a request body: trees are small documents, and
// the limit keeps a misdirected upload from ballooning memory.
const maxTreeBytes = 16 << 20

// Config configures a Server. The zero value selects defaults.
type Config struct {
	// Workers bounds how many analyses run at once (≤0 = GOMAXPROCS).
	// A request that finds every slot taken waits for one; the wait
	// spends its deadline budget, so an overloaded server answers
	// NO_ANSWER instead of piling up unbounded work.
	Workers int
	// DefaultTimeout is the per-request solve budget when the request
	// does not name one (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the budget a request may ask for (default 5m).
	MaxTimeout time.Duration
	// CacheEntries bounds the solution cache (default 1024).
	CacheEntries int
	// Core is the base analysis configuration (engines, sequential
	// race, encoding). Timeout, Bus and Metrics are per-request concerns
	// the server manages itself and overrides.
	Core core.Options
	// Metrics receives service and solver counters; created if nil.
	Metrics *obs.Metrics
	// Bus is the global event bus behind /events; created if nil.
	Bus *obs.EventBus
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxTimeout < c.DefaultTimeout {
		c.DefaultTimeout = c.MaxTimeout
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewMetrics()
	}
	if c.Bus == nil {
		c.Bus = obs.NewEventBus()
	}
	return c
}

// Document is the JSON body of every solve response: the canonical
// tree hash the result is cached under, the taxonomy status, whether
// this response was served from the cache, and the solution payload —
// one document for /v1/analyze, a ranked list for /v1/topk. An
// INFEASIBLE analysis carries an explicit empty-cut-set solution
// rather than nothing: "no cut set exists" is an answer, not an error.
type Document struct {
	Hash   string `json:"hash,omitempty"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
	// K and Complete are set for enumeration (/v1/topk) documents.
	// Complete reports that every returned set is proven OPTIMAL and
	// the enumeration is exhaustive (k reached, or no further cut set
	// exists) — the precondition for caching an enumeration.
	K         int             `json:"k,omitempty"`
	Complete  bool            `json:"complete,omitempty"`
	Solution  json.RawMessage `json:"solution,omitempty"`
	Solutions json.RawMessage `json:"solutions,omitempty"`
	Error     string          `json:"error,omitempty"`
}

// Server is the mpmcsd HTTP service. Create with New, mount Handler
// or call Start, stop with Close.
type Server struct {
	cfg     Config
	slots   chan struct{} // one token per analysis in flight
	cache   *cache
	metrics *obs.Metrics
	bus     *obs.EventBus
	obs     http.Handler // telemetry mux: /metrics, /events, /healthz, pprof

	mu     sync.Mutex
	closed bool         // guarded by mu
	srv    *http.Server // guarded by mu
	// wg joins the listener goroutine and every admitted solve; a
	// solve registers under mu while closed is false, so no Add races
	// Close's Wait.
	wg sync.WaitGroup
}

// New returns a ready Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.Workers),
		cache:   newCache(cfg.CacheEntries),
		metrics: cfg.Metrics,
		bus:     cfg.Bus,
		obs:     obs.NewHandler(cfg.Metrics, cfg.Bus),
	}
}

// Handler returns the service mux, for mounting into an existing
// http.Server (tests use httptest around it).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		s.handleSolve(w, r, false)
	})
	mux.HandleFunc("POST /v1/topk", func(w http.ResponseWriter, r *http.Request) {
		s.handleSolve(w, r, true)
	})
	mux.HandleFunc("GET /v1/solutions/{hash}", s.handleLookup)
	mux.Handle("/", s.obs) // /metrics, /events, /healthz, /debug/pprof
	return mux
}

// Start listens on addr and serves until Close, returning the bound
// address so ":0" callers learn the chosen port.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: listen on %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	s.srv = srv
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	}()
	return ln.Addr().String(), nil
}

// Close stops the listener (disconnecting in-flight requests,
// including blocked SSE streams), refuses new solves, waits for the
// admitted ones and joins every goroutine the server started. Safe
// without Start and more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.srv = nil
	s.closed = true
	s.mu.Unlock()
	var err error
	if srv != nil {
		err = srv.Close() // Close, not Shutdown: SSE streams never drain
	}
	s.wg.Wait()
	return err
}

// admit registers a solve with the server and takes an analysis slot,
// waiting for one at most until ctx ends. When it cannot, it answers
// the client itself — 503 UNAVAILABLE once Close has begun, 504
// NO_ANSWER when the deadline passes first — and returns false. On
// success the caller owes one s.wg.Done, and runAnalysis frees the
// slot.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, hash string) bool {
	s.mu.Lock()
	closed := s.closed
	if !closed {
		s.wg.Add(1)
	}
	s.mu.Unlock()
	if closed {
		writeJSON(w, HTTPStatus(StatusUnavailable), &Document{Hash: hash, Status: StatusUnavailable,
			Error: "server is shutting down"})
		return false
	}
	select {
	case s.slots <- struct{}{}:
		return true
	case <-ctx.Done():
		s.wg.Done()
		// The deadline budget was spent waiting: same verdict as a solve
		// that learned nothing in time.
		writeJSON(w, HTTPStatus(StatusNoAnswer), &Document{Hash: hash, Status: StatusNoAnswer,
			Error: fmt.Sprintf("request expired before a worker was free: %v", ctx.Err())})
		return false
	}
}

// handleSolve serves POST /v1/analyze and POST /v1/topk: parse and
// hash the tree, try the cache, otherwise run the analysis in a free
// slot under the request's deadline budget.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request, topk bool) {
	s.metrics.Add("mpmcsd_requests", 1)
	k := 1
	if topk {
		k = queryInt(r, "k", 3)
		if k < 1 || k > 10_000 {
			writeJSON(w, HTTPStatus(StatusInvalid), &Document{Status: StatusInvalid,
				Error: fmt.Sprintf("k must be in [1, 10000], got %d", k)})
			return
		}
	}
	tree, err := ft.ReadJSON(http.MaxBytesReader(w, r.Body, maxTreeBytes))
	if err != nil {
		writeJSON(w, HTTPStatus(StatusInvalid), &Document{Status: StatusInvalid,
			Error: fmt.Sprintf("parse fault tree: %v", err)})
		return
	}
	hash, err := ft.CanonicalHash(tree)
	if err != nil {
		writeJSON(w, HTTPStatus(StatusError), &Document{Status: StatusError, Error: err.Error()})
		return
	}
	key := cacheKey(hash, topk, k)
	stream := wantsSSE(r)

	if hit, ok := s.cache.get(key); ok {
		s.metrics.Add("mpmcsd_cache_hits", 1)
		if stream {
			sse, ok := startSSE(w)
			if !ok {
				return
			}
			sse.frame("solution", hit.body) //nolint:errcheck // client gone mid-write
			return
		}
		writeBody(w, HTTPStatus(hit.status), hit.body)
		return
	}
	s.metrics.Add("mpmcsd_cache_misses", 1)

	budget := s.budget(r)
	reqCtx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()

	// A streaming request gets its own bus so the client sees exactly
	// its solve's frames; the SSE loop bridges them onto the global bus
	// for /events watchers. Non-streaming solves publish to the global
	// bus directly.
	bus := s.bus
	var sub *obs.Subscription
	if stream {
		bus = obs.NewEventBusRing(0) // subscribed before its first publish: nothing to replay
		sub = bus.Subscribe(256)
		defer sub.Close()
	}

	if !s.admit(reqCtx, w, hash) {
		return
	}
	if stream {
		// SSE frames are relayed while the solve runs, so the solve
		// moves to a goroutine that Close joins. On client disconnect
		// reqCtx dies, the solve aborts, and the buffered send never
		// blocks it.
		resCh := make(chan *Document, 1)
		go func() {
			defer s.wg.Done()
			resCh <- s.runAnalysis(reqCtx, tree, hash, k, topk, bus)
		}()
		s.streamSolve(w, r, sub, resCh, key)
		return
	}
	defer s.wg.Done()
	doc := s.runAnalysis(reqCtx, tree, hash, k, topk, bus)
	body := mustJSON(doc)
	s.finish(key, doc.Status, body)
	writeBody(w, HTTPStatus(doc.Status), body)
}

// streamSolve relays the per-request bus to the SSE client while the
// analysis runs — republishing each frame to the global bus — then
// caches a definitive result and emits the terminal "solution" frame.
func (s *Server) streamSolve(w http.ResponseWriter, r *http.Request, sub *obs.Subscription, resCh <-chan *Document, key string) {
	sse, ok := startSSE(w)
	if !ok {
		return
	}
	keepalive := time.NewTicker(obs.SSEKeepAlive)
	defer keepalive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-keepalive.C:
			if err := sse.comment("keepalive"); err != nil {
				return
			}
		case ev := <-sub.Events():
			s.bus.Publish(ev.Data)
			if err := sse.event(ev); err != nil {
				return
			}
		case doc := <-resCh:
			// Flush frames already queued behind the result so the bound
			// trajectory precedes the terminal frame.
			for drained := false; !drained; {
				select {
				case ev := <-sub.Events():
					s.bus.Publish(ev.Data)
					sse.event(ev) //nolint:errcheck // client gone mid-write
				default:
					drained = true
				}
			}
			body := mustJSON(doc)
			s.finish(key, doc.Status, body)
			sse.frame("solution", body) //nolint:errcheck // client gone mid-write
			return
		}
	}
}

// finish records the cache-policy decision for a solved document,
// given as encoded for its response: only definitive verdicts (OPTIMAL,
// INFEASIBLE) are stored — and an enumeration additionally has to be
// complete, which topkStatus already folds into the status.
func (s *Server) finish(key, status string, body []byte) {
	if Definitive(status) {
		s.cache.put(key, status, body)
		s.metrics.Add("mpmcsd_cache_stores", 1)
	}
}

// runAnalysis executes one admitted analysis and renders the outcome
// as a Document, mapping the error taxonomy to status strings. It
// frees the analysis slot when it returns, so encoding and writing the
// response do not hold it, and a panic cannot leak it. It never
// returns nil and the document is never empty: even a solve that
// learned nothing carries NO_ANSWER and the reason.
func (s *Server) runAnalysis(ctx context.Context, tree *ft.Tree, hash string, k int, topk bool, bus *obs.EventBus) *Document {
	defer func() { <-s.slots }()
	opts := s.cfg.Core
	opts.Timeout = 0 // ctx already carries the request deadline
	opts.Metrics = s.metrics
	opts.Bus = bus
	doc := &Document{Hash: hash}
	if topk {
		doc.K = k
		sols, complete, err := core.AnalyzeTopKComplete(ctx, tree, k, opts)
		switch {
		case errors.Is(err, core.ErrNoCutSet):
			doc.Status = StatusInfeasible
			doc.Complete = true
			doc.Solutions = mustJSON([]*core.Solution{})
		case err != nil:
			return errorDocument(doc, err)
		default:
			doc.Complete = complete
			doc.Solutions = mustJSON(sols)
			doc.Status = StatusFeasible
			if complete {
				doc.Status = StatusOptimal
			}
		}
		return doc
	}
	sol, err := core.Analyze(ctx, tree, opts)
	switch {
	case errors.Is(err, core.ErrNoCutSet):
		doc.Status = StatusInfeasible
		doc.Solution = mustJSON(core.InfeasibleSolution(tree))
	case err != nil:
		return errorDocument(doc, err)
	default:
		doc.Status = sol.Status // OPTIMAL or FEASIBLE
		doc.Solution = mustJSON(sol)
	}
	return doc
}

// errorDocument maps an analysis error onto the taxonomy: a no-answer
// deadline is NO_ANSWER (504), anything else is an internal ERROR.
func errorDocument(doc *Document, err error) *Document {
	doc.Status = StatusError
	if errors.Is(err, core.ErrNoAnswer) {
		doc.Status = StatusNoAnswer
	}
	doc.Error = err.Error()
	return doc
}

// handleLookup serves GET /v1/solutions/{hash}: a pure cache probe —
// hit returns the stored definitive document, miss is 404 (the
// service does not remember trees, only results).
func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	key := hash
	if kq := r.URL.Query().Get("k"); kq != "" {
		k, err := strconv.Atoi(kq)
		if err != nil {
			writeJSON(w, HTTPStatus(StatusInvalid), &Document{Status: StatusInvalid,
				Error: fmt.Sprintf("bad k %q", kq)})
			return
		}
		key = cacheKey(hash, true, k)
	}
	hit, ok := s.cache.get(key)
	if !ok {
		writeJSON(w, HTTPStatus(StatusNotFound), &Document{Hash: hash, Status: StatusNotFound,
			Error: "no cached solution for this hash"})
		return
	}
	s.metrics.Add("mpmcsd_cache_hits", 1)
	writeBody(w, HTTPStatus(hit.status), hit.body)
}

// budget resolves the per-request solve budget: ?timeoutMillis=N
// clamped to (0, MaxTimeout], defaulting to DefaultTimeout.
func (s *Server) budget(r *http.Request) time.Duration {
	ms := queryInt(r, "timeoutMillis", 0)
	if ms <= 0 {
		return s.cfg.DefaultTimeout
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

func cacheKey(hash string, topk bool, k int) string {
	if !topk {
		return hash
	}
	return fmt.Sprintf("%s#k=%d", hash, k)
}

func queryInt(r *http.Request, name string, def int) int {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return -1
	}
	return n
}

func wantsSSE(r *http.Request) bool {
	if r.URL.Query().Get("stream") == "1" || r.URL.Query().Get("stream") == "true" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

func writeJSON(w http.ResponseWriter, code int, doc *Document) {
	writeBody(w, code, mustJSON(doc))
}

// writeBody writes an encoded Document as a response, newline
// terminated.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	w.Write(body)           //nolint:errcheck // client gone mid-write
	io.WriteString(w, "\n") //nolint:errcheck // client gone mid-write
}

// mustJSON marshals a value that cannot fail (solution documents are
// plain data, and a Document's payloads come from mustJSON); an
// impossible failure yields a JSON null rather than a panic mid-request.
func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		return json.RawMessage("null")
	}
	return b
}

// sseWriter renders Server-Sent Events frames in the same format as
// the obs /events endpoint.
type sseWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

// startSSE negotiates the stream; a transport that cannot flush gets
// a 500 and (nil, false).
func startSSE(w http.ResponseWriter) (*sseWriter, bool) {
	f, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return nil, false
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	s := &sseWriter{w: w, f: f}
	s.comment("mpmcsd solve stream") //nolint:errcheck // client gone mid-write
	return s, true
}

func (s *sseWriter) comment(text string) error {
	_, err := fmt.Fprintf(s.w, ": %s\n\n", text)
	s.f.Flush()
	return err
}

// event renders one bus event in the obs /events frame format.
func (s *sseWriter) event(ev obs.Event) error {
	err := obs.WriteSSE(s.w, ev)
	s.f.Flush()
	return err
}

// frame renders a named frame of encoded data (the terminal
// "solution").
func (s *sseWriter) frame(name string, data []byte) error {
	_, err := fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", name, data)
	s.f.Flush()
	return err
}
