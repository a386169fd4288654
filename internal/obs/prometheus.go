package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus writes the registry in Prometheus text exposition
// format 0.0.4: counters as single samples, histograms as
// cumulative le= buckets plus _sum and _count. Metric names are
// sanitised to the Prometheus charset ([a-zA-Z_:][a-zA-Z0-9_:]*), so
// the registry's dotted names ("solve.sat_calls") export cleanly.
// No-op on a nil registry.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	if m == nil {
		return nil
	}
	bw := bufio.NewWriter(w)

	counters := m.Snapshot()
	names := make([]string, 0, len(counters))
	for k := range counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		name := PrometheusName(k)
		fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", name, name, counters[k])
	}

	hists := m.histogramSnapshot()
	names = names[:0]
	for k := range hists {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := hists[k]
		name := PrometheusName(k)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		bounds, cumulative := h.Snapshot()
		for i, le := range bounds {
			fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", name, formatPromValue(le), cumulative[i])
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
		fmt.Fprintf(bw, "%s_sum %s\n", name, formatPromValue(h.Sum()))
		fmt.Fprintf(bw, "%s_count %d\n", name, h.Count())
	}
	return bw.Flush()
}

// formatPromValue renders a float the way Prometheus expects: shortest
// decimal representation, no exponent surprises for the common cases.
func formatPromValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// PrometheusName maps a registry metric name onto the Prometheus
// charset: every character outside [a-zA-Z0-9_:] becomes an
// underscore, and a leading digit gains an underscore prefix.
func PrometheusName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// ValidatePrometheusText checks that the reader's contents parse as
// Prometheus text exposition format 0.0.4: every line is a comment, a
// blank, or "name[{labels}] value [timestamp]" with a well-formed name
// and a parseable value, and every # TYPE declares a known metric
// type. Returns the number of samples on success. The CI smoke job
// and ftmon -once use it to gate the /metrics endpoint.
func ValidatePrometheusText(r io.Reader) (samples int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if fields := strings.Fields(line); len(fields) >= 4 && fields[1] == "TYPE" {
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return samples, fmt.Errorf("line %d: unknown metric type %q", lineNo, fields[3])
				}
			}
			continue
		}
		name, value, ok := splitPromSample(line)
		if !ok {
			return samples, fmt.Errorf("line %d: malformed sample %q", lineNo, line)
		}
		if !validPromName(name) {
			return samples, fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil && value != "+Inf" && value != "-Inf" && value != "NaN" {
			return samples, fmt.Errorf("line %d: invalid sample value %q", lineNo, value)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return samples, err
	}
	return samples, nil
}

// splitPromSample splits a sample line into metric name (with any
// label set stripped) and value, tolerating an optional trailing
// timestamp.
func splitPromSample(line string) (name, value string, ok bool) {
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", "", false
		}
		name = line[:i]
		rest = strings.TrimSpace(line[j+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return "", "", false
		}
		name = fields[0]
		rest = strings.Join(fields[1:], " ")
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", "", false
	}
	return name, fields[0], true
}

// validPromName reports whether the name matches
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validPromName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if i == 0 && !alpha {
			return false
		}
		if !alpha && !(r >= '0' && r <= '9') {
			return false
		}
	}
	return true
}
