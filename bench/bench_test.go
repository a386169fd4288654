package main

import (
	"crypto/sha256"
	"sort"
	"testing"
	"time"

	"mpmcs4fta/internal/lint"
)

// TestWorkloadsSmoke runs every workload on three-tree corpora, untraced
// and traced, and checks that no op fails and that each run reports
// exactly the metrics BENCHMARK.json declares.
func TestWorkloadsSmoke(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	names := func(ms []specMetric) []string {
		out := make([]string, len(ms))
		for i, m := range ms {
			out[i] = m.Name
		}
		sort.Strings(out)
		return out
	}
	want := map[bool][]string{false: names(s.EndToEnd), true: names(s.PerLayer)}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := runWorkload(w.run, runConfig{seed: 1, budget: 100 * time.Millisecond, trace: trace, small: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", w.name, trace, rep.failed, rep.attempted, rep.failures)
			}
			got := make([]string, 0, len(rep.metrics))
			for k := range rep.metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			if !equal(got, want[trace]) {
				t.Errorf("%s trace=%v: metrics\n got %v\nwant %v", w.name, trace, got, want[trace])
			}
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorkloadsDeclared pins the workload list to BENCHMARK.json.
func TestWorkloadsDeclared(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, s.Workloads[i].Name, w.name)
		}
	}
}

// TestPinnedCorpora builds every workload's pinned corpus, which checks
// it against its digest, and checks that every tree has its reference.
func TestPinnedCorpora(t *testing.T) {
	for _, w := range workloads {
		c, err := loadCorpus(w.name, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range append(append(append([]*item(nil), c.setup...), c.trees...), c.misses...) {
			if len(it.ref) == 0 {
				t.Errorf("%s: %s has no reference", w.name, it.repro)
			}
		}
	}
}

// TestServeRequestsArePureFunctionOfSeed checks that one seed lays out
// byte-identical serve-mix requests and another seed different ones.
func TestServeRequestsArePureFunctionOfSeed(t *testing.T) {
	c, err := loadCorpus("serve-mix", true)
	if err != nil {
		t.Fatal(err)
	}
	digest := func(seed int64) [sha256.Size]byte {
		reqs, err := serveRequests(c.trees, c.misses, seed, 100)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, q := range reqs {
			h.Write(q.body)
		}
		var sum [sha256.Size]byte
		copy(sum[:], h.Sum(nil))
		return sum
	}
	a, b, c2 := digest(1), digest(1), digest(2)
	if a != b {
		t.Error("seed 1 laid out two different request streams")
	}
	if a == c2 {
		t.Error("seeds 1 and 2 laid out the same request stream")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "p50_ms", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100}
	for _, tc := range []struct {
		m    specMetric
		a, b []float64
		want string
	}{
		{lower, steady, []float64{104, 105, 103, 104}, "agree"},
		{lower, steady, []float64{120, 121, 119, 120}, "worse"},
		{lower, steady, []float64{80, 81, 79, 80}, "better"},
		{higher, steady, []float64{80, 81, 79, 80}, "worse"},
		{lower, steady, []float64{60, 140, 100, 100}, "unresolved"},
		{lower, []float64{100, 200, 150, 120}, []float64{10, 20, 15, 12}, "better"},
	} {
		if got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.m.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

// TestLintClean holds the benchmark to the repository's analyzers, as
// the root module's TestRepoIsClean does for the program.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the benchmark module")
	}
	fset, targets, all, err := lint.Load(".", "./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(targets) == 0 {
		t.Fatal("loaded no packages")
	}
	for _, d := range lint.Run(fset, targets, all, lint.Analyzers()) {
		t.Errorf("finding: %s", d)
	}
}
