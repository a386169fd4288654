package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/core"
	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/gen"
	"mpmcs4fta/internal/maxsat"
	"mpmcs4fta/internal/portfolio"
)

// Event counts that select the fault injector's behaviour; the mix's
// other trees have 4 (variants) or 7 (FPS, pressure tank) events.
const (
	holdEvents  = 5 // hold the slot until the test lets go
	stallEvents = 6 // stall until the request dies
)

// faultSolver is the load test's fault injector, raced ahead of the
// real engines. On a holdEvents instance it holds its slot until
// release closes; on a stallEvents instance it stalls until the
// request dies, so a client that hangs up leaves mid-solve; on every
// other instance it panics mid-race, and the engines behind it answer.
type faultSolver struct {
	release      chan struct{}
	held, panics atomic.Int32
}

func (*faultSolver) Name() string { return "fault-fake" }

func (f *faultSolver) Solve(ctx context.Context, inst *cnf.WCNF) (maxsat.Result, error) {
	switch len(inst.Soft) {
	case holdEvents:
		f.held.Add(1)
		select {
		case <-f.release:
		case <-ctx.Done():
		}
		return maxsat.Result{Status: maxsat.Unknown}, nil
	case stallEvents:
		<-ctx.Done()
		return maxsat.Result{Status: maxsat.Unknown}, ctx.Err()
	}
	f.panics.Add(1)
	panic("fault-fake: injected engine failure")
}

// TestLoadConcurrentAnalyses is the service's load harness: hundreds
// of concurrent submissions over a few analysis slots, a mix of repeat
// trees (cache hits), distinct trees (real solves), top-k requests and
// SSE streams, with faults injected: an engine that panics in every
// race, every slot held while short-budget requests wait for one, and
// SSE clients that hang up mid-stream. Every response must be
// well-formed with a taxonomy status, and once the server closes, no
// goroutine may survive it. Run under -race in CI.
func TestLoadConcurrentAnalyses(t *testing.T) {
	before := runtime.NumGoroutine()

	const workers = 4
	fault := &faultSolver{release: make(chan struct{})}
	s := New(Config{Workers: workers, CacheEntries: 64, Core: core.Options{Sequential: true,
		Engines: append([]portfolio.Engine{{Name: fault.Name(), Solver: fault}}, portfolio.DefaultEngines()...)}})
	ts := httptest.NewServer(s.Handler())

	// Distinct small trees: variants of a two-layer system with
	// per-variant probabilities, so each hashes differently, plus the
	// library trees for repeat traffic. events picks the fault
	// injector's behaviour.
	variant := func(i, events int) []byte {
		tree := ft.New(fmt.Sprintf("variant-%d-%d", events, i))
		p := 0.01 + float64(i%17)*0.013
		ids := []string{"a", "b", "c", "d", "e", "f"}[:events]
		for _, id := range ids {
			if err := tree.AddEvent(id, p); err != nil {
				t.Fatal(err)
			}
			p *= 1.3
		}
		if err := tree.AddOr("left", ids[:2]...); err != nil {
			t.Fatal(err)
		}
		if err := tree.AddOr("right", ids[2:]...); err != nil {
			t.Fatal(err)
		}
		if err := tree.AddAnd("top", "left", "right"); err != nil {
			t.Fatal(err)
		}
		tree.SetTop("top")
		var buf bytes.Buffer
		if err := tree.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fps := treeJSON(t, gen.FPS())
	tank := treeJSON(t, gen.PressureTank())

	const requests = 240
	client := ts.Client()
	client.Timeout = 60 * time.Second
	var (
		wg       sync.WaitGroup
		expiring sync.WaitGroup // the short-budget requests
		mu       sync.Mutex
		statuses = map[string]int{}
		failures []string
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	// check reads one response to its end and requires an answer, or
	// wantNoAnswer's 504 from a request that found no free slot.
	check := func(i int, resp *http.Response, sse, wantNoAnswer bool) {
		defer resp.Body.Close()
		var doc *Document
		if sse {
			_, doc = sseFrames(t, resp)
			if doc == nil {
				fail("request %d: SSE stream without terminal frame", i)
				return
			}
		} else {
			doc = &Document{}
			if err := json.NewDecoder(resp.Body).Decode(doc); err != nil {
				fail("request %d: undecodable response: %v", i, err)
				return
			}
		}
		switch {
		case wantNoAnswer:
			if resp.StatusCode != 504 || doc.Status != StatusNoAnswer || !strings.Contains(doc.Error, "before a worker was free") {
				fail("request %d: HTTP %d status %q (%s), want 504 NO_ANSWER before a worker was free",
					i, resp.StatusCode, doc.Status, doc.Error)
			}
		case doc.Status == StatusOptimal || doc.Status == StatusFeasible || doc.Status == StatusInfeasible:
			if len(doc.Solution) == 0 && len(doc.Solutions) == 0 {
				fail("request %d: %s response without a solution document", i, doc.Status)
			}
		default:
			fail("request %d: HTTP %d status %q (%s)", i, resp.StatusCode, doc.Status, doc.Error)
		}
		mu.Lock()
		statuses[doc.Status]++
		mu.Unlock()
	}

	// Saturate: one slot holder per slot, parked in the fault injector
	// before the mix arrives.
	for i := 0; i < workers; i++ {
		body := variant(i, holdEvents)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := client.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				fail("slot holder %d: %v", i, err)
				return
			}
			check(-1-i, resp, false, false)
		}(i)
	}
	for deadline := time.Now().Add(5 * time.Second); fault.held.Load() < workers; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d slot holders parked after 5s", fault.held.Load(), workers)
		}
	}

	for i := 0; i < requests; i++ {
		url, body := ts.URL+"/v1/analyze", variant(i%17, 4)
		switch i % 8 {
		case 0:
			body = fps // repeat tree: cache traffic
		case 1:
			body = tank
		case 2:
			url = ts.URL + "/v1/topk?k=2"
			body = fps
		case 3:
			url = ts.URL + "/v1/analyze?stream=1"
		case 4:
			// A client that hangs up once its solve is under way.
			url = ts.URL + "/v1/analyze?stream=1"
			body = variant(i, stallEvents)
		case 5:
			// Every slot is held until this budget is spent.
			url = ts.URL + "/v1/analyze?timeoutMillis=30"
		}
		expires := i%8 == 5
		wg.Add(1)
		if expires {
			expiring.Add(1)
		}
		go func(i int) {
			defer wg.Done()
			if expires {
				defer expiring.Done()
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, "POST", url, bytes.NewReader(body))
			if err != nil {
				fail("request %d: %v", i, err)
				return
			}
			resp, err := client.Do(req)
			if err != nil {
				fail("request %d: %v", i, err)
				return
			}
			if i%8 == 4 {
				hangUpMidStream(i, resp, cancel, fail)
				return
			}
			check(i, resp, i%8 == 3, expires)
		}(i)
	}
	expiring.Wait()
	close(fault.release) // free the slots for the rest of the mix
	wg.Wait()

	// Repeat traffic, now that the first answers are stored: hits.
	for _, repeat := range []struct {
		url  string
		body []byte
	}{{"/v1/analyze", fps}, {"/v1/analyze", tank}, {"/v1/topk?k=2", fps}} {
		resp, err := client.Post(ts.URL+repeat.url, "application/json", bytes.NewReader(repeat.body))
		if err != nil {
			t.Fatal(err)
		}
		var doc Document
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil || !doc.Cached {
			t.Errorf("repeat %s: cached=%v err=%v, want a cache hit", repeat.url, doc.Cached, err)
		}
	}
	for _, f := range failures {
		t.Error(f)
	}
	if statuses[StatusOptimal] == 0 {
		t.Errorf("no OPTIMAL answers across %d requests: %v", requests, statuses)
	}
	if statuses[StatusNoAnswer] != requests/8 {
		t.Errorf("%d NO_ANSWER responses, want the %d short-budget requests alone: %v",
			statuses[StatusNoAnswer], requests/8, statuses)
	}
	if fault.panics.Load() == 0 {
		t.Error("the fault injector never panicked")
	}
	if total := s.metrics.Get("mpmcsd_requests"); total != requests+workers+3 {
		t.Errorf("mpmcsd_requests = %d, want %d", total, requests+workers+3)
	}

	// Teardown: front-end first (kills request contexts), then the
	// server (waits for admitted solves, joins everything it started).
	ts.Close()
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}

	// No goroutine outlives the server. Allow the runtime a moment to
	// retire exiting goroutines before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutines leaked past Close: %d before, %d after\n%s", before, after, buf[:n])
	}
}

// hangUpMidStream reads an SSE response up to its first event frame,
// when the solve is under way, and drops the connection.
func hangUpMidStream(i int, resp *http.Response, cancel context.CancelFunc, fail func(string, ...any)) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != 200 || !strings.Contains(ct, "text/event-stream") {
		fail("request %d: HTTP %d %q, want an SSE stream", i, resp.StatusCode, ct)
		return
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: ") {
			cancel()
			return
		}
	}
	fail("request %d: SSE stream ended before its first event frame", i)
}

// Submissions racing the server's shutdown must fail cleanly (503 or a
// transport error), never hang or panic.
func TestSubmitDuringShutdown(t *testing.T) {
	s := New(Config{Workers: 2, Core: core.Options{Sequential: true}})
	ts := httptest.NewServer(s.Handler())
	body := treeJSON(t, gen.FPS())

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
				if err != nil {
					return // server gone: acceptable
				}
				resp.Body.Close()
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	ts.Close()
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	close(stop)
	wg.Wait()
}
