package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/core"
	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/gen"
	"mpmcs4fta/internal/maxsat"
	"mpmcs4fta/internal/obs"
	"mpmcs4fta/internal/portfolio"
)

// newTestServer starts an httptest front-end over a fresh Server; the
// cleanup tears both down (front-end first, so in-flight request
// contexts die before Close waits for the admitted solves).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s, ts
}

func treeJSON(t *testing.T, tree *ft.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tree.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postTree(t *testing.T, url string, body []byte) (*Document, int) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc Document
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return &doc, resp.StatusCode
}

func TestAnalyzeEndToEndAndCacheByteEquality(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Core: core.Options{Sequential: true}})
	body := treeJSON(t, gen.FPS())

	fresh, code := postTree(t, ts.URL+"/v1/analyze", body)
	if code != 200 {
		t.Fatalf("fresh solve: HTTP %d (%s: %s)", code, fresh.Status, fresh.Error)
	}
	if fresh.Status != StatusOptimal {
		t.Fatalf("status %q, want OPTIMAL", fresh.Status)
	}
	if fresh.Cached {
		t.Error("fresh solve claims to be cached")
	}
	if !strings.HasPrefix(fresh.Hash, "sha256:") {
		t.Errorf("malformed hash %q", fresh.Hash)
	}
	var sol core.Solution
	if err := json.Unmarshal(fresh.Solution, &sol); err != nil {
		t.Fatalf("solution does not decode: %v", err)
	}
	if len(sol.MPMCS) == 0 || sol.Probability <= 0 {
		t.Fatalf("empty solution document: %+v", sol)
	}

	// The differ-style guard: a cache hit must return byte-for-byte the
	// solution document of the solve that populated it.
	hit, code := postTree(t, ts.URL+"/v1/analyze", body)
	if code != 200 || !hit.Cached {
		t.Fatalf("second POST: HTTP %d cached=%v, want a cache hit", code, hit.Cached)
	}
	if !bytes.Equal(hit.Solution, fresh.Solution) {
		t.Errorf("cache hit diverged from the fresh solution document:\nfresh: %s\nhit:   %s",
			fresh.Solution, hit.Solution)
	}
	if hit.Hash != fresh.Hash || hit.Status != fresh.Status {
		t.Errorf("cache hit envelope diverged: %+v vs %+v", hit, fresh)
	}
	if hits := s.metrics.Get("mpmcsd_cache_hits"); hits != 1 {
		t.Errorf("mpmcsd_cache_hits = %d, want 1", hits)
	}
	if misses := s.metrics.Get("mpmcsd_cache_misses"); misses != 1 {
		t.Errorf("mpmcsd_cache_misses = %d, want 1", misses)
	}
}

// A semantically identical tree — gates renamed, children permuted —
// must land on the same canonical hash and be served from the cache.
func TestAnalyzeCacheHitAcrossRenaming(t *testing.T) {
	build := func(top, left string, flip bool) *ft.Tree {
		tree := ft.New("vehicle-" + top)
		events := []struct {
			id string
			p  float64
		}{{"a", 0.05}, {"b", 0.02}, {"c", 0.4}}
		if flip {
			for i, j := 0, len(events)-1; i < j; i, j = i+1, j-1 {
				events[i], events[j] = events[j], events[i]
			}
		}
		for _, e := range events {
			if err := tree.AddEvent(e.id, e.p); err != nil {
				t.Fatal(err)
			}
		}
		in := []string{"a", "b"}
		if flip {
			in = []string{"b", "a"}
		}
		if err := tree.AddOr(left, in...); err != nil {
			t.Fatal(err)
		}
		if err := tree.AddAnd(top, left, "c"); err != nil {
			t.Fatal(err)
		}
		tree.SetTop(top)
		return tree
	}
	s, ts := newTestServer(t, Config{Workers: 2, Core: core.Options{Sequential: true}})

	first, code := postTree(t, ts.URL+"/v1/analyze", treeJSON(t, build("g-top", "g-left", false)))
	if code != 200 {
		t.Fatalf("first solve: HTTP %d (%s)", code, first.Error)
	}
	second, code := postTree(t, ts.URL+"/v1/analyze", treeJSON(t, build("system-fails", "subsystem", true)))
	if code != 200 {
		t.Fatalf("second solve: HTTP %d (%s)", code, second.Error)
	}
	if second.Hash != first.Hash {
		t.Fatalf("renamed/permuted tree hashed differently: %s vs %s", second.Hash, first.Hash)
	}
	if !second.Cached {
		t.Error("semantically identical tree was re-solved instead of served from cache")
	}
	if s.metrics.Get("mpmcsd_cache_hits") != 1 {
		t.Errorf("mpmcsd_cache_hits = %d, want 1", s.metrics.Get("mpmcsd_cache_hits"))
	}
}

func TestTopKEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Core: core.Options{Sequential: true}})
	body := treeJSON(t, gen.FPS())

	doc, code := postTree(t, ts.URL+"/v1/topk?k=3", body)
	if code != 200 {
		t.Fatalf("topk: HTTP %d (%s: %s)", code, doc.Status, doc.Error)
	}
	if doc.Status != StatusOptimal || !doc.Complete || doc.K != 3 {
		t.Fatalf("got status=%s complete=%v k=%d, want OPTIMAL complete k=3", doc.Status, doc.Complete, doc.K)
	}
	var sols []*core.Solution
	if err := json.Unmarshal(doc.Solutions, &sols); err != nil {
		t.Fatal(err)
	}
	if len(sols) != 3 {
		t.Fatalf("got %d solutions, want 3", len(sols))
	}
	for i := 1; i < len(sols); i++ {
		if sols[i].Probability > sols[i-1].Probability {
			t.Errorf("solutions out of order: %v then %v", sols[i-1].Probability, sols[i].Probability)
		}
	}

	hit, _ := postTree(t, ts.URL+"/v1/topk?k=3", body)
	if !hit.Cached || !bytes.Equal(hit.Solutions, doc.Solutions) {
		t.Error("complete enumeration not served from cache byte-identically")
	}
	// A different k is a different result — it must not alias.
	other, _ := postTree(t, ts.URL+"/v1/topk?k=2", body)
	if other.Cached {
		t.Error("k=2 served from the k=3 cache entry")
	}
}

func TestLookupEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Core: core.Options{Sequential: true}})
	body := treeJSON(t, gen.FPS())
	doc, _ := postTree(t, ts.URL+"/v1/analyze", body)

	resp, err := http.Get(ts.URL + "/v1/solutions/" + doc.Hash)
	if err != nil {
		t.Fatal(err)
	}
	var got Document
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || !got.Cached {
		t.Fatalf("lookup: HTTP %d cached=%v, want 200 cache hit", resp.StatusCode, got.Cached)
	}
	if !bytes.Equal(got.Solution, doc.Solution) {
		t.Error("lookup returned a different solution document")
	}

	resp, err = http.Get(ts.URL + "/v1/solutions/sha256:" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown hash: HTTP %d, want 404", resp.StatusCode)
	}
}

// A tree whose top event cannot occur is a definitive INFEASIBLE: 200
// with an explicit empty-cut-set document, and cacheable.
func TestInfeasibleEmptySetDocument(t *testing.T) {
	tree := ft.New("impossible")
	if err := tree.AddEvent("never", 0); err != nil { // p=0: cannot fail
		t.Fatal(err)
	}
	if err := tree.AddEvent("pump", 0.1); err != nil {
		t.Fatal(err)
	}
	if err := tree.AddAnd("top", "never", "pump"); err != nil {
		t.Fatal(err)
	}
	tree.SetTop("top")

	s, ts := newTestServer(t, Config{Workers: 1, Core: core.Options{Sequential: true}})
	body := treeJSON(t, tree)
	doc, code := postTree(t, ts.URL+"/v1/analyze", body)
	if code != 200 || doc.Status != StatusInfeasible {
		t.Fatalf("HTTP %d status %s, want 200 INFEASIBLE", code, doc.Status)
	}
	var sol core.Solution
	if err := json.Unmarshal(doc.Solution, &sol); err != nil {
		t.Fatalf("INFEASIBLE response carries no well-formed solution: %v", err)
	}
	if sol.MPMCS == nil || len(sol.MPMCS) != 0 || sol.Probability != 0 {
		t.Errorf("want explicit empty cut set with probability 0, got %+v", sol)
	}
	if hit, _ := postTree(t, ts.URL+"/v1/analyze", body); !hit.Cached {
		t.Error("INFEASIBLE is definitive and must be cached")
	}
	if s.metrics.Get("mpmcsd_cache_stores") != 1 {
		t.Errorf("mpmcsd_cache_stores = %d, want 1", s.metrics.Get("mpmcsd_cache_stores"))
	}
}

// unknownSolver never answers — the solve behaves like a deadline that
// expired before round 0.
type unknownSolver struct{}

func (unknownSolver) Name() string { return "unknown-fake" }

func (unknownSolver) Solve(context.Context, *cnf.WCNF) (maxsat.Result, error) {
	return maxsat.Result{Status: maxsat.Unknown}, nil
}

// feasibleSolver returns a sound incumbent (every event failed — a
// superset of a real cut set, minimised downstream) without proving
// optimality: the anytime FEASIBLE shape.
type feasibleSolver struct{}

func (feasibleSolver) Name() string { return "feasible-fake" }

func (feasibleSolver) Solve(_ context.Context, inst *cnf.WCNF) (maxsat.Result, error) {
	model := make([]bool, inst.NumVars+1)
	var cost int64
	for _, sc := range inst.Soft {
		cost += sc.Weight
	}
	return maxsat.Result{Status: maxsat.Feasible, Model: model, Cost: cost, LowerBound: 0}, nil
}

func engines(s maxsat.Solver) []portfolio.Engine {
	return []portfolio.Engine{{Name: s.Name(), Solver: s}}
}

// The headline cache-policy rule: a solve that never answered is 504
// NO_ANSWER — and is NEVER cached, because a different budget could
// answer. Before the deadline-vs-infeasible fix this surfaced as
// ErrNoCutSet, which the service would have cached forever.
func TestNoAnswerIs504AndNeverCached(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1,
		Core: core.Options{Sequential: true, Engines: engines(unknownSolver{})}})
	body := treeJSON(t, gen.FPS())

	for round := 1; round <= 2; round++ {
		doc, code := postTree(t, ts.URL+"/v1/analyze", body)
		if code != 504 || doc.Status != StatusNoAnswer {
			t.Fatalf("round %d: HTTP %d status %s, want 504 NO_ANSWER", round, code, doc.Status)
		}
		if doc.Status == StatusInfeasible || strings.Contains(doc.Error, "no cut set") {
			t.Fatalf("round %d: budget expiry misreported as infeasibility: %+v", round, doc)
		}
		if doc.Error == "" {
			t.Errorf("round %d: NO_ANSWER without a reason", round)
		}
	}
	if s.cache.len() != 0 || s.metrics.Get("mpmcsd_cache_misses") != 2 {
		t.Errorf("no-answer result was cached: len=%d misses=%d", s.cache.len(), s.metrics.Get("mpmcsd_cache_misses"))
	}
	// Top-k no-answer takes the same path.
	doc, code := postTree(t, ts.URL+"/v1/topk?k=2", body)
	if code != 504 || doc.Status != StatusNoAnswer {
		t.Errorf("topk: HTTP %d status %s, want 504 NO_ANSWER", code, doc.Status)
	}
	if s.cache.len() != 0 {
		t.Error("topk no-answer was cached")
	}
}

// FEASIBLE carries the anytime contract fields and is not cached.
func TestFeasibleCarriesGapAndIsNotCached(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1,
		Core: core.Options{Sequential: true, Engines: engines(feasibleSolver{})}})
	body := treeJSON(t, gen.FPS())

	doc, code := postTree(t, ts.URL+"/v1/analyze", body)
	if code != 200 || doc.Status != StatusFeasible {
		t.Fatalf("HTTP %d status %s (%s), want 200 FEASIBLE", code, doc.Status, doc.Error)
	}
	var sol core.Solution
	if err := json.Unmarshal(doc.Solution, &sol); err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusFeasible || sol.ProbabilityUpperBound <= 0 {
		t.Errorf("FEASIBLE document missing anytime fields: status=%s ub=%v gap=%v",
			sol.Status, sol.ProbabilityUpperBound, sol.OptimalityGap)
	}
	if len(sol.MPMCS) == 0 {
		t.Error("FEASIBLE answer carries no cut set")
	}
	if again, _ := postTree(t, ts.URL+"/v1/analyze", body); again.Cached {
		t.Error("FEASIBLE (non-definitive) result was served from cache")
	}
	if s.cache.len() != 0 {
		t.Errorf("cache holds %d entries after FEASIBLE-only traffic", s.cache.len())
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Core: core.Options{Sequential: true}})
	cases := []struct {
		name, url, body string
	}{
		{"malformed JSON", "/v1/analyze", "{not json"},
		{"invalid tree", "/v1/analyze", `{"name":"x","top":"missing","events":[],"gates":[]}`},
		{"bad k", "/v1/topk?k=0", `{}`},
		{"non-numeric k", "/v1/topk?k=lots", `{}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc, code := postTree(t, ts.URL+tc.url, []byte(tc.body))
			if code != 400 || doc.Status != StatusInvalid {
				t.Errorf("HTTP %d status %s, want 400 INVALID", code, doc.Status)
			}
			if doc.Error == "" {
				t.Error("400 without a reason")
			}
		})
	}
}

// sseFrames reads a request's SSE stream to completion and returns the
// event names in order plus the terminal solution document.
func sseFrames(t *testing.T, resp *http.Response) (kinds []string, final *Document) {
	t.Helper()
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var kind string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			kind = strings.TrimPrefix(line, "event: ")
			kinds = append(kinds, kind)
		case strings.HasPrefix(line, "data: ") && kind == "solution":
			final = &Document{}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), final); err != nil {
				t.Errorf("terminal frame does not decode: %v", err)
				return kinds, nil
			}
		}
	}
	return kinds, final
}

func TestStreamingSolve(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Core: core.Options{Sequential: true}})
	body := treeJSON(t, gen.FPS())

	req, err := http.NewRequest("POST", ts.URL+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	kinds, final := sseFrames(t, resp)
	if final == nil {
		t.Fatalf("stream ended without a terminal solution frame (frames: %v)", kinds)
	}
	if final.Status != StatusOptimal || final.Cached {
		t.Errorf("terminal frame status=%s cached=%v, want fresh OPTIMAL", final.Status, final.Cached)
	}
	var sawSolve bool
	for _, k := range kinds {
		if k == obs.KindSolveStarted || k == obs.KindSolveFinished {
			sawSolve = true
		}
	}
	if !sawSolve {
		t.Errorf("no solve lifecycle frames before the terminal one: %v", kinds)
	}
	if kinds[len(kinds)-1] != "solution" {
		t.Errorf("solution frame is not terminal: %v", kinds)
	}

	// Cached replay over SSE: just the solution frame, flagged cached.
	resp, err = http.Post(ts.URL+"/v1/analyze?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	kinds, final = sseFrames(t, resp)
	if final == nil || !final.Cached {
		t.Fatalf("cached stream: final=%+v frames=%v, want cached solution frame", final, kinds)
	}
}

// A streaming request's frames must also reach the global /events bus
// so fleet-wide watchers see every solve.
func TestStreamingBridgesToGlobalBus(t *testing.T) {
	bus := obs.NewEventBus()
	_, ts := newTestServer(t, Config{Workers: 1, Bus: bus, Core: core.Options{Sequential: true}})
	resp, err := http.Post(ts.URL+"/v1/analyze?stream=1", "application/json",
		bytes.NewReader(treeJSON(t, gen.PressureTank())))
	if err != nil {
		t.Fatal(err)
	}
	if _, final := sseFrames(t, resp); final == nil {
		t.Fatal("no terminal frame")
	}
	deadline := time.Now().Add(2 * time.Second)
	for bus.Published() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if bus.Published() == 0 {
		t.Error("streaming solve published nothing to the global bus")
	}
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Core: core.Options{Sequential: true}})
	if _, code := postTree(t, ts.URL+"/v1/analyze", treeJSON(t, gen.FPS())); code != 200 {
		t.Fatalf("solve failed: HTTP %d", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 text format", ct)
	}
	// The whole exposition, service counters and solver histograms
	// alike, must parse as Prometheus text 0.0.4.
	if n, err := obs.ValidatePrometheusText(bytes.NewReader(text)); err != nil || n == 0 {
		t.Fatalf("invalid Prometheus exposition (%d samples): %v\n%s", n, err, text)
	}
	for _, want := range []string{"mpmcsd_requests", "mpmcsd_cache_misses",
		"# TYPE solver_sat_call_seconds histogram", `solver_sat_call_seconds_bucket{le="+Inf"}`} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %s:\n%s", want, text)
		}
	}
}

// TestServerCloseUnblocksStreams: Close must disconnect a client
// blocked on /events and return, leaving no subscription and no
// goroutine behind.
func TestServerCloseUnblocksStreams(t *testing.T) {
	before := runtime.NumGoroutine()
	bus := obs.NewEventBus()
	s := New(Config{Workers: 1, Bus: bus})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read the opening comment so the handler is known to be serving.
	if _, err := resp.Body.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on a live /events stream")
	}
	if _, err := io.Copy(io.Discard, resp.Body); err == nil {
		t.Error("/events stream ended cleanly; want it cut off by Close")
	}
	deadline := time.Now().Add(2 * time.Second)
	for bus.Subscribers() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := bus.Subscribers(); n != 0 {
		t.Errorf("%d bus subscribers after Close, want 0", n)
	}
	resp.Body.Close()
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked past Close: %d before, %d after", before, after)
	}
}

// Ultra-short request budgets must degrade to NO_ANSWER, not to a
// wrong verdict — exercised through the real query-parameter path.
func TestRequestTimeoutParameter(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1,
		Core: core.Options{Sequential: true, Engines: engines(slowSolver{})}})
	doc, code := postTree(t, ts.URL+"/v1/analyze?timeoutMillis=30", treeJSON(t, gen.FPS()))
	if code != 504 || doc.Status != StatusNoAnswer {
		t.Fatalf("HTTP %d status %s, want 504 NO_ANSWER", code, doc.Status)
	}
}

// slowSolver blocks until its context dies and reports nothing.
type slowSolver struct{}

func (slowSolver) Name() string { return "slow-fake" }

func (slowSolver) Solve(ctx context.Context, _ *cnf.WCNF) (maxsat.Result, error) {
	<-ctx.Done()
	return maxsat.Result{Status: maxsat.Unknown}, ctx.Err()
}

func TestStatusTable(t *testing.T) {
	rows := []struct {
		status string
		http   int
		exit   int
	}{
		{StatusOptimal, 200, ExitOK},
		{StatusFeasible, 200, ExitFeasible},
		{StatusInfeasible, 200, ExitInfeasible},
		{StatusNoAnswer, 504, ExitNoAnswer},
		{StatusInvalid, 400, ExitUsage},
		{StatusError, 500, ExitError},
		{StatusUnavailable, 503, ExitError},
		{StatusNotFound, 404, ExitError},
	}
	for _, row := range rows {
		if got := HTTPStatus(row.status); got != row.http {
			t.Errorf("HTTPStatus(%s) = %d, want %d", row.status, got, row.http)
		}
		if got := ExitCode(row.status); got != row.exit {
			t.Errorf("ExitCode(%s) = %d, want %d", row.status, got, row.exit)
		}
	}
	if !Definitive(StatusOptimal) || !Definitive(StatusInfeasible) {
		t.Error("OPTIMAL and INFEASIBLE must be definitive")
	}
	for _, s := range []string{StatusFeasible, StatusNoAnswer, StatusInvalid, StatusError, StatusUnavailable, StatusNotFound} {
		if Definitive(s) {
			t.Errorf("%s must not be definitive (cacheable)", s)
		}
	}
	// The status constants must agree with the solver's own spelling.
	if StatusOptimal != maxsat.Optimal.String() ||
		StatusFeasible != maxsat.Feasible.String() ||
		StatusInfeasible != maxsat.Infeasible.String() {
		t.Error("serve status strings diverge from maxsat.Status spellings")
	}
	wpms := map[maxsat.Status]int{maxsat.Optimal: 30, maxsat.Infeasible: 20, maxsat.Feasible: 10, maxsat.Unknown: 0}
	for st, want := range wpms {
		if got := WPMSExitCode(st); got != want {
			t.Errorf("WPMSExitCode(%v) = %d, want %d", st, got, want)
		}
	}
}

func TestCacheEviction(t *testing.T) {
	c := newCache(2)
	put := func(key string) {
		c.put(key, StatusOptimal, mustJSON(&Document{Hash: key, Status: StatusOptimal}))
	}
	put("a")
	put("b")
	if _, ok := c.get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	put("c")
	if _, ok := c.get("b"); ok {
		t.Error("LRU entry b survived eviction")
	}
	for _, want := range []string{"a", "c"} {
		hit, ok := c.get(want)
		var doc Document
		if ok {
			if err := json.Unmarshal(hit.body, &doc); err != nil {
				t.Fatalf("entry %s: %v", want, err)
			}
		}
		if !ok || hit.status != StatusOptimal || doc.Hash != want || !doc.Cached {
			t.Errorf("entry %s: ok=%v status=%s doc=%+v", want, ok, hit.status, doc)
		}
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

// renamedTree rebuilds tree with every gate renamed and every gate's
// inputs reversed: a different document with the same canonical hash.
func renamedTree(t *testing.T, tree *ft.Tree) *ft.Tree {
	t.Helper()
	name := func(id string) string {
		if tree.Gate(id) != nil {
			return "renamed." + id
		}
		return id
	}
	out := ft.New(tree.Name())
	for _, e := range tree.Events() {
		if err := out.AddEventDesc(e.ID, e.Description, e.Prob); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range tree.Gates() {
		inputs := make([]string, len(g.Inputs))
		for i, in := range g.Inputs {
			inputs[len(inputs)-1-i] = name(in)
		}
		if err := out.AddGate(name(g.ID), g.Description, g.Type, g.K, inputs...); err != nil {
			t.Fatal(err)
		}
	}
	out.SetTop(name(tree.Top()))
	return out
}

// rawBody returns a response's status code and its body.
func rawBody(t *testing.T, resp *http.Response, err error) (int, []byte) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// README's promise: a hit is the cold response byte for byte apart from
// "cached":true — whether it answers a renamed resubmission, a lookup by
// hash or a streaming request.
func TestCacheHitsAreByteIdentical(t *testing.T) {
	tree := gen.FPS()
	cold, renamed := treeJSON(t, tree), treeJSON(t, renamedTree(t, tree))
	for _, tc := range []struct{ solve, query string }{
		{"/v1/analyze", ""},
		{"/v1/topk", "?k=3"},
	} {
		t.Run(tc.solve, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Workers: 2, Core: core.Options{Sequential: true}})
			post := func(url string, body []byte) (int, []byte) {
				resp, err := http.Post(url, "application/json", bytes.NewReader(body))
				return rawBody(t, resp, err)
			}
			solveURL := ts.URL + tc.solve + tc.query
			code, want := post(solveURL, cold)
			if code != 200 || !bytes.Contains(want, []byte(`"cached":false`)) {
				t.Fatalf("cold solve: HTTP %d %s", code, want)
			}
			var doc Document
			if err := json.Unmarshal(want, &doc); err != nil {
				t.Fatal(err)
			}
			_, hit := post(solveURL, renamed)
			resp, err := http.Get(ts.URL + "/v1/solutions/" + doc.Hash + tc.query)
			_, lookup := rawBody(t, resp, err)
			streamURL := ts.URL + tc.solve + "?stream=1"
			if tc.query != "" {
				streamURL += "&" + tc.query[1:]
			}
			_, sse := post(streamURL, renamed)
			stream := solutionFrame(sse)
			for name, got := range map[string][]byte{
				"renamed resubmission": hit,
				"lookup by hash":       lookup,
				"SSE solution frame":   append(stream, '\n'),
			} {
				if !bytes.Contains(got, []byte(`"cached":true`)) {
					t.Errorf("%s is not flagged cached: %s", name, got)
				}
				got = bytes.Replace(got, []byte(`"cached":true`), []byte(`"cached":false`), 1)
				if !bytes.Equal(got, want) {
					t.Errorf("%s differs from the cold response:\ncold %s\nhit  %s", name, want, got)
				}
			}
		})
	}
}

// A tree whose top is reached along 2^40 paths through shared gates
// must get a definitive answer inside a one-second budget: no step may
// walk a shared gate once per path, deadline or not. The handler runs
// on its own goroutine so a walk that never ends fails the test rather
// than hanging it.
func TestSharedGateLadderAnswersInBudget(t *testing.T) {
	s := New(Config{Workers: 1})
	body := treeJSON(t, gen.Ladder(40))
	done := make(chan *httptest.ResponseRecorder, 1)
	start := time.Now()
	go func() {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/analyze?timeoutMillis=1000", bytes.NewReader(body)))
		done <- rec
	}()
	var rec *httptest.ResponseRecorder
	select {
	case rec = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("no answer 5s into a 1s budget")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("answered after %v, past the 1s budget", elapsed)
	}
	var doc Document
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if rec.Code != 200 || doc.Status != StatusOptimal {
		t.Fatalf("HTTP %d status %s (%s), want 200 OPTIMAL", rec.Code, doc.Status, doc.Error)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}
