package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNopSpanZeroAllocs(t *testing.T) {
	tr := Nop()
	allocs := testing.AllocsPerRun(1000, func() {
		root := tr.StartSpan("analyze")
		root.SetString("tree", "fps")
		root.SetInt("events", 3)
		child := root.StartSpan("solve")
		child.SetBool("completed", true)
		child.SetFloat("ms", 1.5)
		child.End()
		root.End()
	})
	if allocs != 0 {
		t.Errorf("no-op span tree allocated %v objects per run, want 0", allocs)
	}
}

func TestNopSpanNotRecording(t *testing.T) {
	if Nop().StartSpan("x").Recording() {
		t.Error("no-op span claims to be recording")
	}
	if NopSpan().Recording() {
		t.Error("NopSpan claims to be recording")
	}
}

func TestJSONTracerSpanTree(t *testing.T) {
	tr := NewJSONTracer()
	root := tr.StartSpan("analyze")
	root.SetString("tree", "fps")
	child := root.StartSpan("solve")
	child.SetInt("engines", 6)
	grand := child.StartSpan("engine:wmsu1")
	grand.SetBool("completed", true)
	time.Sleep(time.Millisecond)
	grand.End()
	child.End()
	root.End()

	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name != "analyze" {
		t.Fatalf("roots = %+v", roots)
	}
	if got := roots[0].Attrs["tree"]; got != "fps" {
		t.Errorf("root attr tree = %v", got)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Name != "solve" {
		t.Fatalf("children = %+v", roots[0].Children)
	}
	solve := roots[0].Children[0]
	if len(solve.Children) != 1 || solve.Children[0].Name != "engine:wmsu1" {
		t.Fatalf("grandchildren = %+v", solve.Children)
	}
	if solve.Children[0].DurationMS <= 0 {
		t.Errorf("ended span has duration %v", solve.Children[0].DurationMS)
	}
	if !root.Recording() {
		t.Error("JSON span not recording")
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []*SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Spans) != 1 {
		t.Errorf("decoded %d root spans", len(doc.Spans))
	}
}

func TestJSONTracerConcurrent(t *testing.T) {
	tr := NewJSONTracer()
	root := tr.StartSpan("solve")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := root.StartSpan(fmt.Sprintf("engine:%d", i))
			sp.SetInt("conflicts", int64(i))
			sp.End()
		}(i)
	}
	wg.Wait()
	root.End()
	if got := len(tr.Roots()[0].Children); got != 8 {
		t.Errorf("got %d engine spans, want 8", got)
	}
}

func TestContextSpanPlumbing(t *testing.T) {
	ctx := context.Background()
	if sp := SpanFromContext(ctx); sp.Recording() {
		t.Error("empty context should yield the no-op span")
	}
	tr := NewJSONTracer()
	root := tr.StartSpan("root")
	ctx = ContextWithSpan(ctx, root)
	if sp := SpanFromContext(ctx); !sp.Recording() {
		t.Error("context lost the recording span")
	}
}

func TestMetrics(t *testing.T) {
	m := NewMetrics()
	m.Add("analyses", 1)
	m.Add("analyses", 2)
	m.Add("conflicts", 40)
	if got := m.Get("analyses"); got != 3 {
		t.Errorf("analyses = %d", got)
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE analyses counter\nanalyses 3\n# TYPE conflicts counter\nconflicts 40\n"
	if buf.String() != want {
		t.Errorf("WritePrometheus = %q, want %q", buf.String(), want)
	}
}

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	m.Add("x", 1) // must not panic
	if m.Get("x") != 0 || m.Snapshot() != nil {
		t.Error("nil metrics should read as empty")
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WritePrometheus: %v %q", err, buf.String())
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Add("n", 1)
			}
		}()
	}
	wg.Wait()
	if got := m.Get("n"); got != 1600 {
		t.Errorf("n = %d, want 1600", got)
	}
}

func TestSolverStatsAdd(t *testing.T) {
	a := SolverStats{SATCalls: 2, Conflicts: 10, Decisions: 20}
	a.RecordBound(1, 0, 5)
	b := SolverStats{SATCalls: 1, Conflicts: 5, Restarts: 2}
	b.RecordBound(1, 3, 3)
	a.Add(b)
	if a.SATCalls != 3 || a.Conflicts != 15 || a.Restarts != 2 {
		t.Errorf("Add result %+v", a)
	}
	if len(a.Bounds) != 2 || a.Bounds[1].Lower != 3 {
		t.Errorf("bounds %+v", a.Bounds)
	}
}

func TestStartCPUProfile(t *testing.T) {
	path := t.TempDir() + "/cpu.prof"
	stop, err := StartCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to encode.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Error("CPU profile is empty")
	}
	if _, err := StartCPUProfile(t.TempDir() + "/nope/cpu.prof"); err == nil {
		t.Error("expected error for unwritable path")
	} else if !strings.Contains(err.Error(), "cpu profile") {
		t.Errorf("error %v", err)
	}
}

// TestSolverStatsEngineTagging covers the bound-trajectory attribution
// added for the live telemetry stream: Start names the engine, every
// recorded step carries the engine tag and a wall-clock stamp, and
// TagEngine retags already-recorded steps (the portfolio renames
// trajectories under its registered engine names).
func TestSolverStatsEngineTagging(t *testing.T) {
	var s SolverStats
	s.Start("wmsu1")
	if s.Engine() != "wmsu1" {
		t.Fatalf("Engine() = %q after Start, want wmsu1", s.Engine())
	}
	s.RecordBound(1, 0, 9)
	s.RecordBound(2, 3, 7)
	for i, step := range s.Bounds {
		if step.Engine != "wmsu1" {
			t.Errorf("step %d engine %q, want wmsu1", i, step.Engine)
		}
		if step.AtMS < 0 {
			t.Errorf("step %d has negative wall-clock stamp %v", i, step.AtMS)
		}
	}

	s.TagEngine("wmsu1-strat")
	if s.Engine() != "wmsu1-strat" {
		t.Errorf("Engine() = %q after TagEngine, want wmsu1-strat", s.Engine())
	}
	for i, step := range s.Bounds {
		if step.Engine != "wmsu1-strat" {
			t.Errorf("step %d engine %q after retag, want wmsu1-strat", i, step.Engine)
		}
	}
}

// TestSolverStatsAddKeepsEngineTags: merged trajectories must stay
// attributable — concatenation is only sound because each BoundStep
// carries its own engine tag.
func TestSolverStatsAddKeepsEngineTags(t *testing.T) {
	var a, b SolverStats
	a.Start("linear-su")
	a.RecordBound(1, 0, 5)
	b.Start("branch-bound")
	b.RecordBound(1, 2, 4)
	a.Add(b)
	if len(a.Bounds) != 2 {
		t.Fatalf("merged %d bound steps, want 2", len(a.Bounds))
	}
	if a.Bounds[0].Engine != "linear-su" || a.Bounds[1].Engine != "branch-bound" {
		t.Errorf("merged trajectory lost attribution: %+v", a.Bounds)
	}
}

// TestSolverStatsRecordBoundWithoutStart: standalone engine use (no
// portfolio, no Start call) must still stamp timestamps lazily and
// leave the engine tag empty rather than panic.
func TestSolverStatsRecordBoundWithoutStart(t *testing.T) {
	var s SolverStats
	s.RecordBound(1, 1, 2)
	if len(s.Bounds) != 1 || s.Bounds[0].AtMS < 0 {
		t.Fatalf("lazy clock failed: %+v", s.Bounds)
	}
}
