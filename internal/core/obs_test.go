package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"mpmcs4fta/internal/gen"
	"mpmcs4fta/internal/obs"
)

// collectNames flattens a span tree into name → count.
func collectNames(recs []*obs.SpanRecord, into map[string]int) {
	for _, r := range recs {
		into[r.Name]++
		collectNames(r.Children, into)
	}
}

func TestAnalyzeTraceCoversSixSteps(t *testing.T) {
	tracer := obs.NewJSONTracer()
	sol, err := Analyze(context.Background(), gen.FPS(), Options{Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}

	names := make(map[string]int)
	collectNames(tracer.Roots(), names)
	for _, step := range []string{"analyze", "validate", "formula", "weights", "encode", "solve", "decode"} {
		if names[step] == 0 {
			t.Errorf("trace missing %q span; got %v", step, names)
		}
	}
	// One engine span per portfolio member, losers included.
	engineSpans := 0
	for name, n := range names {
		if len(name) > 7 && name[:7] == "engine:" {
			engineSpans += n
		}
	}
	if want := len(Options{}.withDefaults().Engines); engineSpans != want {
		t.Errorf("got %d engine spans, want %d (every member, including losers)", engineSpans, want)
	}

	// The winning engine's counters must surface in the solution stats.
	st := sol.Stats.Solver
	if st.SATCalls == 0 && st.Decisions == 0 {
		t.Errorf("solution stats carry no solver counters: %+v", st)
	}
	if len(st.Bounds) == 0 {
		t.Error("solution stats missing the bound trajectory")
	}
}

func TestAnalyzeTraceEngineCounters(t *testing.T) {
	tracer := obs.NewJSONTracer()
	if _, err := Analyze(context.Background(), gen.FPS(), Options{Tracer: tracer}); err != nil {
		t.Fatal(err)
	}
	var check func(recs []*obs.SpanRecord)
	found := 0
	check = func(recs []*obs.SpanRecord) {
		for _, r := range recs {
			if len(r.Name) > 7 && r.Name[:7] == "engine:" {
				found++
				for _, key := range []string{"satCalls", "conflicts", "decisions", "propagations"} {
					if _, ok := r.Attrs[key]; !ok {
						t.Errorf("engine span %s missing %q attr: %v", r.Name, key, r.Attrs)
					}
				}
			}
			check(r.Children)
		}
	}
	check(tracer.Roots())
	if found == 0 {
		t.Fatal("no engine spans recorded")
	}
}

func TestAnalyzeMetrics(t *testing.T) {
	m := obs.NewMetrics()
	if _, err := Analyze(context.Background(), gen.FPS(), Options{Metrics: m}); err != nil {
		t.Fatal(err)
	}
	if got := m.Get("analyses"); got != 1 {
		t.Errorf("analyses = %d", got)
	}
	winners := int64(0)
	for name, v := range m.Snapshot() {
		if len(name) > 7 && name[:7] == "winner." {
			winners += v
		}
	}
	if winners != 1 {
		t.Errorf("winner counters sum to %d, want 1", winners)
	}
}

// The enumerating entry points run Steps 1-4 once and one spanned
// solve+decode per round under their own root span, and every round
// counts in the metrics.
func TestAnalyzeTopKTraced(t *testing.T) {
	cases := []struct {
		root string
		run  func(Options) ([]*Solution, error)
	}{
		{"analyze-topk", func(opts Options) ([]*Solution, error) {
			return AnalyzeTopK(context.Background(), gen.FPS(), 2, opts)
		}},
		{"analyze-disjoint", func(opts Options) ([]*Solution, error) {
			return AnalyzeDisjoint(context.Background(), gen.FPS(), 2, opts)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.root, func(t *testing.T) {
			tracer := obs.NewJSONTracer()
			metrics := obs.NewMetrics()
			sols, err := tc.run(Options{Tracer: tracer, Metrics: metrics, Sequential: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(sols) != 2 {
				t.Fatalf("got %d solutions", len(sols))
			}
			roots := tracer.Roots()
			if len(roots) != 1 || roots[0].Name != tc.root {
				t.Fatalf("want one %s root span, got %d roots", tc.root, len(roots))
			}
			names := make(map[string]int)
			collectNames(roots, names)
			if names["solve"] < 2 || names["decode"] < 2 {
				t.Errorf("want one solve+decode per round, got %v", names)
			}
			if names["engine:wmsu1"] < 2 {
				t.Errorf("want an engine span per round, got %v", names)
			}
			for _, step := range []string{"validate", "formula", "weights", "encode"} {
				if names[step] != 1 {
					t.Errorf("steps 1-4 should run once, got %v", names)
				}
			}
			if got := metrics.Get("analyses"); got != int64(len(sols)) {
				t.Errorf("analyses = %d, want one per round", got)
			}
		})
	}
}

// TestAnalyzeNoTracerZeroStepAllocs pins the acceptance criterion that
// the disabled tracing path creates no per-step objects: the no-op
// span tree used by buildSteps and friends must not allocate.
func TestAnalyzeNoTracerZeroStepAllocs(t *testing.T) {
	var opts Options
	tr := opts.tracer()
	allocs := testing.AllocsPerRun(1000, func() {
		root := tr.StartSpan("analyze")
		for _, step := range [...]string{"validate", "formula", "weights", "encode", "solve", "decode"} {
			sp := root.StartSpan(step)
			if sp.Recording() {
				sp.SetInt("vars", 1)
			}
			sp.End()
		}
		root.End()
	})
	if allocs != 0 {
		t.Errorf("disabled tracing path allocates %v objects per analysis, want 0", allocs)
	}
}

// TestAnalyzeEventStream runs a full portfolio solve with a live event
// bus attached and checks the acceptance contract of the /events
// stream: a solveStarted opener, strictly increasing sequence numbers,
// a monotone bound trajectory (upper bounds never rise, lower bounds
// never fall — BoundImproved is published under the Bounds lock), and
// a solveFinished terminal frame.
func TestAnalyzeEventStream(t *testing.T) {
	for _, sequential := range []bool{false, true} {
		t.Run(fmt.Sprintf("sequential=%v", sequential), func(t *testing.T) {
			bus := obs.NewEventBus()
			sub := bus.Subscribe(4096)
			defer sub.Close()
			sol, err := Analyze(context.Background(), gen.FPS(), Options{Bus: bus, Sequential: sequential})
			if err != nil {
				t.Fatal(err)
			}
			checkEventStream(t, sub, sol)
		})
	}
}

// checkEventStream drains one analysis's frames and checks their order,
// bound monotonicity and terminal status against sol.
func checkEventStream(t *testing.T, sub *obs.Subscription, sol *Solution) {
	var events []obs.Event
	deadline := time.After(10 * time.Second)
drain:
	for {
		select {
		case ev := <-sub.Events():
			events = append(events, ev)
			if ev.Kind == obs.KindSolveFinished {
				break drain
			}
		case <-deadline:
			t.Fatalf("no solveFinished terminal frame; %d events so far", len(events))
		}
	}

	if events[0].Kind != obs.KindSolveStarted {
		t.Errorf("first event kind %q, want %q", events[0].Kind, obs.KindSolveStarted)
	}
	started, ok := events[0].Data.(obs.SolveStarted)
	if !ok || started.Engines == 0 || started.Vars == 0 {
		t.Errorf("solveStarted payload %#v, want engine and variable counts", events[0].Data)
	}

	var lastSeq uint64
	var lastLB int64 = -1 << 62
	var lastUB int64 = 1<<62 - 1
	boundFrames := 0
	for _, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("sequence numbers not strictly increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.AtMS < 0 {
			t.Fatalf("negative event timestamp %v", ev.AtMS)
		}
		bi, ok := ev.Data.(obs.BoundImproved)
		if !ok {
			continue
		}
		boundFrames++
		if bi.Engine == "" {
			t.Errorf("bound frame without engine attribution: %+v", bi)
		}
		if bi.Lower < lastLB {
			t.Errorf("lower bound fell: %d after %d", bi.Lower, lastLB)
		}
		lastLB = bi.Lower
		if bi.Upper >= 0 {
			if bi.Upper > lastUB {
				t.Errorf("upper bound rose: %d after %d", bi.Upper, lastUB)
			}
			lastUB = bi.Upper
		}
	}
	if boundFrames == 0 {
		t.Error("no BoundImproved frames in the stream")
	}

	fin, ok := events[len(events)-1].Data.(obs.SolveFinished)
	if !ok {
		t.Fatalf("terminal frame payload %#v, want SolveFinished", events[len(events)-1].Data)
	}
	if fin.Status != sol.Status {
		t.Errorf("terminal frame status %q, want the solution's %q", fin.Status, sol.Status)
	}
	if fin.ElapsedMS < 0 {
		t.Errorf("negative elapsed %v in terminal frame", fin.ElapsedMS)
	}

	// The winner's bound trajectory is tagged with the portfolio's
	// registered engine name, so merged trajectories stay attributable.
	for _, step := range sol.Stats.Solver.Bounds {
		if step.Engine == "" {
			t.Errorf("untagged bound step %+v in solution stats", step)
		}
	}
}

// TestNopTracerGuard pins what the disabled tracing path rests on: an
// unset Options.Tracer resolves to obs.Nop(), and a no-op span's whole
// lifecycle allocates nothing, so untraced analyses pay no tracing
// cost.
func TestNopTracerGuard(t *testing.T) {
	tracer := Options{}.tracer()
	if tracer != obs.Nop() {
		t.Fatalf("Options{}.tracer() = %#v, want obs.Nop()", tracer)
	}
	if n := testing.AllocsPerRun(1000, func() {
		root := tracer.StartSpan("analyze")
		sp := root.StartSpan("encode")
		sp.SetInt("vars", 7)
		sp.SetFloat("ms", 1.5)
		sp.SetString("engine", "wmsu1")
		sp.SetBool("optimal", true)
		sp.End()
		root.End()
	}); n != 0 {
		t.Errorf("no-op span lifecycle allocates %.1f times, want 0", n)
	}
}
