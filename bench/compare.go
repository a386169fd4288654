package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords loads the untraced records of an -out file, grouped by
// workload.
func readRecords(path string) (map[string][]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]runRecord)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rec.Trace {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	return out, sc.Err()
}

// verdict applies one metric's bound to the runs of a parent (a) and a
// change (b). A metric whose run-to-run spread in either set exceeds its
// bound is unresolved, unless every run of b reads better than every run
// of a.
func verdict(m specMetric, a, b []float64) string {
	lowerBetter := m.Better == "lower"
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	ma, mb := median(a), median(b)
	change := ratio(mb-ma, ma)
	if !lowerBetter {
		change = -change
	}
	switch {
	case spread(a) > m.Bound || spread(b) > m.Bound:
		if allBetter {
			return "better"
		}
		return "unresolved"
	case change > m.Bound:
		return "worse"
	case change < -m.Bound:
		return "better"
	default:
		return "agree"
	}
}

// runCompare prints, for every workload and end-to-end metric of
// BENCHMARK.json, the two sets' medians and spreads and the verdict, and
// a failure-share row per workload where any increase is worse. A
// calib_ms row per workload shows how the machine's speed moved between
// the sets; it has no verdict. It returns an error when any pair is
// worse or unresolved.
func runCompare(pathA, pathB string, w io.Writer) error {
	s, err := loadSpec()
	if err != nil {
		return err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %-12s %12s %7s %12s %7s %6s  %s\n", "workload", "metric", "A median", "spread", "B median", "spread", "bound", "verdict")
	bad := 0
	for _, wl := range s.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-10s %-12s missing from %s\n", wl.Name, "", map[bool]string{true: pathA, false: pathB}[len(ra) == 0])
			bad++
			continue
		}
		for _, m := range s.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			v := verdict(m, va, vb)
			if v == "worse" || v == "unresolved" {
				bad++
			}
			fmt.Fprintf(w, "%-10s %-12s %12.4f %6.1f%% %12.4f %6.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, median(va), 100*spread(va), median(vb), 100*spread(vb), 100*m.Bound, v)
		}
		fa, fb := failShare(ra), failShare(rb)
		v := "agree"
		if fb > fa {
			v = "worse"
			bad++
		}
		fmt.Fprintf(w, "%-10s %-12s %12.6f %7s %12.6f %7s %6s  %s\n", wl.Name, "fail_frac", fa, "", fb, "", "any", v)
		ca, cb := calibs(ra), calibs(rb)
		fmt.Fprintf(w, "%-10s %-12s %12.4f %6.1f%% %12.4f %6.1f%% %6s  machine %+.1f%%\n",
			wl.Name, "calib_ms", median(ca), 100*spread(ca), median(cb), 100*spread(cb), "", 100*ratio(median(cb)-median(ca), median(ca)))
	}
	if bad > 0 {
		return fmt.Errorf("%d (metric, workload) pairs worse, unresolved or missing", bad)
	}
	return nil
}

func values(rs []runRecord, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func calibs(rs []runRecord) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.CalibMS)
	}
	return out
}

func failShare(rs []runRecord) float64 {
	attempted, failed := 0, 0
	for _, r := range rs {
		attempted += r.Result.Attempted
		failed += r.Result.Failed
	}
	return ratio(float64(failed), float64(attempted))
}
