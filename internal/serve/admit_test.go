package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/core"
	"mpmcs4fta/internal/gen"
	"mpmcs4fta/internal/maxsat"
	"mpmcs4fta/internal/portfolio"
)

// gateSolver is a blocking fake engine, raced ahead of branch-bound:
// every Solve parks until open is called, whatever its context says
// (a stuck slot holder), then returns Unknown so branch-bound answers.
// It counts the analyses parked in it, their peak and how many ever
// started.
type gateSolver struct {
	release chan struct{}
	once    sync.Once

	mu                     sync.Mutex
	running, peak, started int
}

func newGateSolver() *gateSolver { return &gateSolver{release: make(chan struct{})} }

func (g *gateSolver) Name() string { return "gate-fake" }

func (g *gateSolver) Solve(context.Context, *cnf.WCNF) (maxsat.Result, error) {
	g.mu.Lock()
	g.started++
	g.running++
	g.peak = max(g.peak, g.running)
	g.mu.Unlock()
	<-g.release
	g.mu.Lock()
	g.running--
	g.mu.Unlock()
	return maxsat.Result{Status: maxsat.Unknown}, nil
}

// open lets every parked and future Solve through.
func (g *gateSolver) open() { g.once.Do(func() { close(g.release) }) }

func (g *gateSolver) counts() (running, peak, started int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.running, g.peak, g.started
}

// waitRunning polls until n analyses are parked in the gate.
func (g *gateSolver) waitRunning(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		running, _, _ := g.counts()
		if running >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d analyses parked in the gate after 5s, want %d", running, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// gatedConfig is a server whose every analysis passes the gate first.
func gatedConfig(gate *gateSolver, workers int) Config {
	return Config{Workers: workers, Core: core.Options{Sequential: true, Engines: []portfolio.Engine{
		{Name: gate.Name(), Solver: gate},
		{Name: "branch-bound", Solver: &maxsat.BranchBound{}},
	}}}
}

// postAsync posts body in the background and delivers the HTTP code
// and decoded document (or the transport error) on the returned
// channel.
func postAsync(url string, body []byte) <-chan result {
	out := make(chan result, 1)
	go func() {
		var r result
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			r.err = err
		} else {
			r.code = resp.StatusCode
			r.err = json.NewDecoder(resp.Body).Decode(&r.doc)
			resp.Body.Close()
		}
		out <- r
	}()
	return out
}

type result struct {
	code int
	doc  Document
	err  error
}

// No more than Workers analyses are ever in flight, and that many do
// run at once: the slots parallelise rather than serialise.
func TestWorkersBoundAnalysesInFlight(t *testing.T) {
	const workers, requests = 2, 6
	gate := newGateSolver()
	_, ts := newTestServer(t, gatedConfig(gate, workers))
	t.Cleanup(gate.open) // runs before the server's teardown

	var pending []<-chan result
	for i := 0; i < requests; i++ {
		// Distinct trees: no request can be answered from another's
		// cache entry.
		tree := gen.FPS()
		tree.Event("x1").Prob = 0.1 + float64(i)/100
		pending = append(pending, postAsync(ts.URL+"/v1/analyze", treeJSON(t, tree)))
	}
	gate.waitRunning(t, workers)
	time.Sleep(50 * time.Millisecond) // room for an overrun, were the bound broken
	if running, peak, started := gate.counts(); peak != workers || started != workers {
		t.Fatalf("with every slot busy: running=%d peak=%d started=%d, want %d analyses and no more",
			running, peak, started, workers)
	}
	gate.open()
	for i, ch := range pending {
		if r := <-ch; r.err != nil || r.code != 200 || r.doc.Status != StatusOptimal {
			t.Errorf("request %d: HTTP %d status %s err %v, want 200 OPTIMAL", i, r.code, r.doc.Status, r.err)
		}
	}
	if _, peak, started := gate.counts(); peak != workers || started != requests {
		t.Errorf("peak %d analyses in flight over %d started, want peak %d over %d", peak, started, workers, requests)
	}
}

// A request whose deadline passes while every slot is busy gets 504
// NO_ANSWER, starts no analysis and leaves nothing in the cache.
func TestDeadlineExpiresWaitingForSlot(t *testing.T) {
	gate := newGateSolver()
	s, ts := newTestServer(t, gatedConfig(gate, 1))
	t.Cleanup(gate.open)

	first := postAsync(ts.URL+"/v1/analyze", treeJSON(t, gen.FPS()))
	gate.waitRunning(t, 1)

	doc, code := postTree(t, ts.URL+"/v1/analyze?timeoutMillis=30", treeJSON(t, gen.PressureTank()))
	if code != 504 || doc.Status != StatusNoAnswer || !strings.Contains(doc.Error, "before a worker was free") {
		t.Fatalf("HTTP %d status %s (%s), want 504 NO_ANSWER before a worker was free", code, doc.Status, doc.Error)
	}
	if _, _, started := gate.counts(); started != 1 {
		t.Errorf("%d analyses started, want 1: the expired request must not start one", started)
	}

	gate.open()
	if r := <-first; r.err != nil || r.code != 200 || r.doc.Status != StatusOptimal {
		t.Fatalf("slot holder: HTTP %d status %s err %v, want 200 OPTIMAL", r.code, r.doc.Status, r.err)
	}
	// Only the slot holder's definitive answer is stored.
	if n, stores := s.cache.len(), s.metrics.Get("mpmcsd_cache_stores"); n != 1 || stores != 1 {
		t.Errorf("cache holds %d entries after %d stores, want the slot holder's alone", n, stores)
	}
	resp, err := http.Get(ts.URL + "/v1/solutions/" + doc.Hash)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("expired request's tree: lookup HTTP %d, want 404", resp.StatusCode)
	}
}

// Close waits for an in-flight streamed solve: the goroutine that runs
// it holds a slot, and Close joins it.
func TestCloseWaitsForStreamedSolve(t *testing.T) {
	gate := newGateSolver()
	t.Cleanup(gate.open)
	s := New(gatedConfig(gate, 1))
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	body := treeJSON(t, gen.FPS())
	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		url := fmt.Sprintf("http://%s/v1/analyze?stream=1", addr)
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // cut off by Close
			resp.Body.Close()
		}
	}()
	gate.waitRunning(t, 1)

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while a streamed solve still held its slot")
	case <-time.After(100 * time.Millisecond):
	}
	gate.open()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return once the streamed solve finished")
	}
	if running, _, _ := gate.counts(); running != 0 {
		t.Errorf("Close returned with %d analyses still in the gate", running)
	}
	<-clientDone
}

// A solve that arrives once Close has begun is refused with 503
// UNAVAILABLE before it takes a slot; cache hits stay answerable.
func TestSolveAfterCloseIsUnavailable(t *testing.T) {
	s := New(Config{Workers: 1, Core: core.Options{Sequential: true}})
	h := s.Handler()
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(body)))
		return rec
	}
	fps := treeJSON(t, gen.FPS())
	if rec := post(fps); rec.Code != 200 {
		t.Fatalf("before Close: HTTP %d %s", rec.Code, rec.Body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rec := post(treeJSON(t, gen.PressureTank()))
	var doc Document
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if rec.Code != 503 || doc.Status != StatusUnavailable {
		t.Errorf("after Close: HTTP %d status %s, want 503 UNAVAILABLE", rec.Code, doc.Status)
	}
	if len(s.slots) != 0 {
		t.Errorf("refused solve left %d slots taken", len(s.slots))
	}
	if rec := post(fps); rec.Code != 200 || !strings.Contains(rec.Body.String(), `"cached":true`) {
		t.Errorf("cache hit after Close: HTTP %d %s", rec.Code, rec.Body)
	}
}
