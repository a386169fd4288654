package obs

import (
	"bufio"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// startTestServer starts a Server on a random port and returns its
// base URL; cleanup stops it.
func startTestServer(t *testing.T, m *Metrics, bus *EventBus) string {
	t.Helper()
	srv := NewServer(m, bus)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return "http://" + addr
}

func TestServerMetricsPrometheus(t *testing.T) {
	m := NewMetrics()
	m.Add("analyses", 3)
	m.Add("winner.wmsu1-strat", 2) // dotted+dashed name needs sanitising
	h := m.Histogram("solver.sat_call_seconds", DurationBuckets)
	h.Observe(0.002)
	h.Observe(0.3)
	h.Observe(999) // lands in +Inf

	bus := NewEventBus()
	bus.Publish(Heartbeat{})
	base := startTestServer(t, m, bus)

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 text format", ct)
	}
	var body strings.Builder
	samples, err := ValidatePrometheusText(io.TeeReader(resp.Body, &body))
	if err != nil {
		t.Fatalf("invalid Prometheus exposition: %v\n%s", err, body.String())
	}
	if samples == 0 {
		t.Fatal("no samples served")
	}
	text := body.String()
	for _, want := range []string{
		"analyses 3",
		"winner_wmsu1_strat 2",
		`solver_sat_call_seconds_bucket{le="+Inf"} 3`,
		"solver_sat_call_seconds_count 3",
		"obs_bus_events_published 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in exposition:\n%s", want, text)
		}
	}
}

func TestServerEventsSSE(t *testing.T) {
	bus := NewEventBus()
	bus.Publish(SolveStarted{Vars: 10, Engines: 2})
	base := startTestServer(t, nil, bus)

	resp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	// Late publication must reach the already-connected stream too.
	bus.Publish(SolveFinished{Status: "OPTIMAL", Cost: 42})

	r := bufio.NewReader(resp.Body)
	var frames []string
	var data strings.Builder
	deadline := time.After(5 * time.Second)
	for len(frames) < 2 {
		select {
		case <-deadline:
			t.Fatalf("timed out; frames so far: %q", frames)
		default:
		}
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended early: %v (frames %q)", err, frames)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		case line == "" && data.Len() > 0:
			frames = append(frames, data.String())
			data.Reset()
		}
	}
	if !strings.Contains(frames[0], `"kind":"solveStarted"`) {
		t.Errorf("first frame %q, want the replayed solveStarted", frames[0])
	}
	if !strings.Contains(frames[1], `"kind":"solveFinished"`) || !strings.Contains(frames[1], `"cost":42`) {
		t.Errorf("second frame %q, want the live solveFinished", frames[1])
	}
}

func TestServerHealthzAndPprof(t *testing.T) {
	base := startTestServer(t, nil, nil)
	for _, path := range []string{"/healthz", "/debug/pprof/"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestServerCloseUnblocksStreams: Close must disconnect a live SSE
// subscriber and leave no goroutines behind — the leak contract of the
// acceptance criteria.
func TestServerCloseUnblocksStreams(t *testing.T) {
	before := runtime.NumGoroutine()

	bus := NewEventBus()
	srv := NewServer(nil, bus)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	// Read the opening comment so the handler is known to be serving.
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	resp.Body.Close()

	// The subscription must be released: the handler exited.
	deadline := time.Now().Add(2 * time.Second)
	for bus.Subscribers() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := bus.Subscribers(); n != 0 {
		t.Errorf("%d bus subscribers after Close, want 0", n)
	}
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked past Close: %d before, %d after", before, after)
	}
}

// TestServerSlowSSESubscriberDoesNotBlockPublish: a connected client
// that never reads must not stall publishers (the drop policy extends
// end to end through the HTTP layer).
func TestServerSlowSSESubscriberDoesNotBlockPublish(t *testing.T) {
	bus := NewEventBus()
	base := startTestServer(t, nil, bus)

	resp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}

	// Never read the body again; flood well past every buffer. Publish
	// must stay non-blocking (this would time out the test otherwise).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			bus.Publish(Heartbeat{Conflicts: int64(i)})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publishing blocked on a slow SSE subscriber")
	}
	if bus.Dropped() == 0 {
		t.Error("expected drops against the stalled subscriber")
	}
}

func TestValidatePrometheusTextRejectsGarbage(t *testing.T) {
	cases := []string{
		"no_value_here\n",
		"bad-name 3\n",
		"# TYPE x flumph\nx 1\n",
		"name not_a_number\n",
	}
	for _, c := range cases {
		if _, err := ValidatePrometheusText(strings.NewReader(c)); err == nil {
			t.Errorf("ValidatePrometheusText(%q) accepted invalid input", c)
		}
	}
	ok := "# HELP a counter\n# TYPE a counter\na 1\nb{le=\"0.5\"} 2 1700000000\nc +Inf\n"
	n, err := ValidatePrometheusText(strings.NewReader(ok))
	if err != nil || n != 3 {
		t.Errorf("ValidatePrometheusText(valid) = %d, %v; want 3, nil", n, err)
	}
}

func TestPrometheusName(t *testing.T) {
	cases := map[string]string{
		"solve.sat_calls":    "solve_sat_calls",
		"winner.linear-su":   "winner_linear_su",
		"9lives":             "_9lives",
		"ok_name:with_colon": "ok_name:with_colon",
	}
	for in, want := range cases {
		if got := PrometheusName(in); got != want {
			t.Errorf("PrometheusName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500, 1} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Fatalf("Sum = %v, want 556.5", h.Sum())
	}
	bounds, cum := h.Snapshot()
	if len(bounds) != 3 || cum[0] != 2 || cum[1] != 3 || cum[2] != 4 {
		t.Fatalf("Snapshot = %v %v, want cumulative [2 3 4]", bounds, cum)
	}
	var nilH *Histogram
	nilH.Observe(1) // must not panic
	if nilH.Count() != 0 || nilH.Sum() != 0 {
		t.Fatal("nil histogram reports observations")
	}
}
