package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpmcs4fta/internal/obs"
)

const fpsText = `
tree FPS
top top
event x1 0.2
event x2 0.1
event x3 0.001
event x4 0.002
event x5 0.05
event x6 0.1
event x7 0.05
gate detection and x1 x2
gate remote or x6 x7
gate trigger and x5 remote
gate suppression or x3 x4 trigger
gate top or detection suppression
`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunFPSText(t *testing.T) {
	input := writeTemp(t, "fps.txt", fpsText)
	var out bytes.Buffer
	if _, err := run([]string{"-input", input, "-sequential"}, &out); err != nil {
		t.Fatal(err)
	}
	var sol struct {
		MPMCS []struct {
			ID string `json:"id"`
		} `json:"mpmcs"`
		Probability float64 `json:"probability"`
	}
	if err := json.Unmarshal(out.Bytes(), &sol); err != nil {
		t.Fatalf("output is not a solution document: %v\n%s", err, out.String())
	}
	if len(sol.MPMCS) != 2 || sol.Probability < 0.0199 || sol.Probability > 0.0201 {
		t.Errorf("unexpected solution: %+v", sol)
	}
}

func TestRunJSONInputAndOutputs(t *testing.T) {
	// Convert the text tree to JSON through the library, then feed it
	// back through the CLI with -output and -dot.
	input := writeTemp(t, "fps.txt", fpsText)
	dir := t.TempDir()
	outPath := filepath.Join(dir, "solution.json")
	dotPath := filepath.Join(dir, "tree.dot")

	var stdout bytes.Buffer
	_, err := run([]string{
		"-input", input,
		"-output", outPath,
		"-dot", dotPath,
		"-sequential",
	}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"mpmcs\"") {
		t.Errorf("solution file missing mpmcs: %s", data)
	}
	dot, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"digraph", "salmon"} {
		if !strings.Contains(string(dot), want) {
			t.Errorf("dot output missing %q", want)
		}
	}
}

func TestRunTopK(t *testing.T) {
	input := writeTemp(t, "fps.txt", fpsText)
	var out bytes.Buffer
	if _, err := run([]string{"-input", input, "-topk", "5", "-sequential"}, &out); err != nil {
		t.Fatal(err)
	}
	var sols []json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &sols); err != nil {
		t.Fatalf("topk output is not an array: %v", err)
	}
	if len(sols) != 5 {
		t.Errorf("got %d solutions, want 5", len(sols))
	}
}

func TestRunBDDEngine(t *testing.T) {
	input := writeTemp(t, "fps.txt", fpsText)
	var out bytes.Buffer
	if _, err := run([]string{"-input", input, "-engine", "bdd"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Rauzy") {
		t.Errorf("BDD method not reported:\n%s", out.String())
	}
}

func TestRunBDDEngineTopK(t *testing.T) {
	input := writeTemp(t, "fps.txt", fpsText)
	var out bytes.Buffer
	if _, err := run([]string{"-input", input, "-engine", "bdd", "-topk", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	var sols []json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &sols); err != nil {
		t.Fatalf("bdd topk output is not an array: %v", err)
	}
	if len(sols) != 3 {
		t.Errorf("got %d solutions, want 3", len(sols))
	}
}

func TestRunWCNFExport(t *testing.T) {
	input := writeTemp(t, "fps.txt", fpsText)
	wcnfPath := filepath.Join(t.TempDir(), "inst.wcnf")
	var out bytes.Buffer
	if _, err := run([]string{"-input", input, "-wcnf", wcnfPath, "-sequential"}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(wcnfPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "p wcnf ") {
		t.Errorf("WCNF export malformed:\n%s", data)
	}
	// The export must contain the Table-I scaled weights as soft
	// clauses.
	if !strings.Contains(string(data), "16094379 1 0") {
		t.Errorf("soft clause for x1 missing:\n%s", data)
	}
}

func TestRunReport(t *testing.T) {
	input := writeTemp(t, "fps.txt", fpsText)
	var out bytes.Buffer
	if _, err := run([]string{"-input", input, "-report", "-topk", "3", "-sequential"}, &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Solutions           []json.RawMessage `json:"solutions"`
		TopEventProbability float64           `json:"topEventProbability"`
		MinimalCutSets      int64             `json:"minimalCutSets"`
		SPOFs               []string          `json:"singlePointsOfFailure"`
		Importance          []json.RawMessage `json:"importance"`
		Modules             []string          `json:"modules"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, out.String())
	}
	if len(doc.Solutions) != 3 || doc.MinimalCutSets != 5 {
		t.Errorf("report: %d solutions, %d cut sets", len(doc.Solutions), doc.MinimalCutSets)
	}
	if len(doc.SPOFs) != 2 || len(doc.Importance) != 7 || len(doc.Modules) != 5 {
		t.Errorf("report measures incomplete: %+v", doc)
	}
	if doc.TopEventProbability <= 0.02 {
		t.Errorf("P(top) = %v", doc.TopEventProbability)
	}
}

func TestRunErrors(t *testing.T) {
	input := writeTemp(t, "fps.txt", fpsText)
	bad := writeTemp(t, "bad.txt", "gate g and\n")
	tests := []struct {
		name string
		args []string
		want string // substring of the error, when set
	}{
		{"missing input", []string{}, ""},
		{"nonexistent file", []string{"-input", "/does/not/exist"}, ""},
		{"bad tree", []string{"-input", bad}, ""},
		{"bad topk", []string{"-input", input, "-topk", "0"}, ""},
		{"bad engine", []string{"-input", input, "-engine", "quantum"}, ""},
		{"bdd with disjoint", []string{"-input", input, "-engine", "bdd", "-disjoint"}, ""},
		{"bdd with timeout", []string{"-input", input, "-engine", "bdd", "-timeout", "1ms"}, "-timeout requires -engine portfolio"},
		{"bad format", []string{"-input", input, "-format", "yaml"}, "unknown input format"},
		{"no worker knob", []string{"-decompose-workers", "2", input}, "flag provided but not defined"},
		{"no decomposition knob", []string{"-no-decompose", input}, "flag provided but not defined"},
		{"no telemetry server", []string{"-obs-listen", "127.0.0.1:0", input}, "flag provided but not defined"},
		{"no telemetry linger", []string{"-obs-linger", "1s", input}, "flag provided but not defined"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out bytes.Buffer
			code, err := run(tt.args, &out)
			if err == nil {
				t.Fatal("expected error")
			}
			if code == 0 {
				t.Errorf("exit code 0 for a failed run")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error = %q, want it to contain %q", err, tt.want)
			}
		})
	}
}

func TestRunTraceAndMetrics(t *testing.T) {
	input := writeTemp(t, "fps.txt", fpsText)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.prom")

	var out bytes.Buffer
	// Positional input (no -input flag) is part of the contract here.
	_, err := run([]string{"-trace", tracePath, "-metrics", metricsPath, input}, &out)
	if err != nil {
		t.Fatal(err)
	}

	// The solution document must carry the winner's solver counters.
	var sol struct {
		Stats struct {
			Solver struct {
				Bounds []json.RawMessage `json:"bounds"`
			} `json:"solver"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(out.Bytes(), &sol); err != nil {
		t.Fatalf("bad solution JSON: %v", err)
	}
	if len(sol.Stats.Solver.Bounds) == 0 {
		t.Errorf("solution stats.solver missing bound trajectory:\n%s", out.String())
	}

	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []json.RawMessage `json:"spans"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.Spans) == 0 {
		t.Fatal("trace has no root spans")
	}
	for _, want := range []string{
		`"validate"`, `"formula"`, `"weights"`, `"encode"`, `"solve"`, `"decode"`,
		`"engine:wmsu1-strat"`, `"engine:linear-su"`, `"engine:branch-bound"`,
		`"satCalls"`, `"decisions"`,
	} {
		if !strings.Contains(string(trace), want) {
			t.Errorf("trace missing %s", want)
		}
	}

	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := obs.ValidatePrometheusText(bytes.NewReader(metrics)); err != nil || n == 0 {
		t.Errorf("metrics snapshot is not valid /metrics text (%d samples, %v):\n%s", n, err, metrics)
	}
	if !strings.Contains(string(metrics), "analyses 1") {
		t.Errorf("metrics snapshot missing analyses counter:\n%s", metrics)
	}
	if !strings.Contains(string(metrics), "winner_") {
		t.Errorf("metrics snapshot missing winner counter:\n%s", metrics)
	}
}

func TestRunCPUProfile(t *testing.T) {
	input := writeTemp(t, "fps.txt", fpsText)
	profPath := filepath.Join(t.TempDir(), "cpu.prof")
	var out bytes.Buffer
	if _, err := run([]string{"-cpuprofile", profPath, "-sequential", input}, &out); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(profPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Error("CPU profile is empty")
	}
}

func TestRunFormatOverride(t *testing.T) {
	// A .dat file containing the text format needs -format text... which
	// is the default for non-.json, so test JSON via override instead.
	jsonTree := `{"name":"t","top":"g","events":[{"id":"a","probability":0.5},{"id":"b","probability":0.5}],"gates":[{"id":"g","type":"and","inputs":["a","b"]}]}`
	input := writeTemp(t, "tree.dat", jsonTree)
	var out bytes.Buffer
	if _, err := run([]string{"-input", input, "-format", "json", "-sequential"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\"probability\": 0.25") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

// Exit codes follow the shared taxonomy (internal/serve): 0 OPTIMAL,
// 20 INFEASIBLE with an explicit empty-set document on stdout.
func TestRunExitCodes(t *testing.T) {
	input := writeTemp(t, "fps.txt", fpsText)
	var out bytes.Buffer
	code, err := run([]string{"-input", input, "-sequential"}, &out)
	if err != nil || code != 0 {
		t.Fatalf("optimal run: code %d, err %v, want 0, nil", code, err)
	}

	impossible := `
tree impossible
top top
event never 0
event pump 0.1
gate top and never pump
`
	input = writeTemp(t, "impossible.txt", impossible)
	out.Reset()
	code, err = run([]string{"-input", input, "-sequential"}, &out)
	if err != nil {
		t.Fatalf("infeasible tree is a verdict, not an error: %v", err)
	}
	if code != 20 {
		t.Errorf("infeasible exit code %d, want 20", code)
	}
	var sol struct {
		MPMCS       []json.RawMessage `json:"mpmcs"`
		Probability float64           `json:"probability"`
		Status      string            `json:"status"`
	}
	if err := json.Unmarshal(out.Bytes(), &sol); err != nil {
		t.Fatalf("no empty-set document on stdout: %v\n%s", err, out.String())
	}
	if sol.MPMCS == nil || len(sol.MPMCS) != 0 || sol.Probability != 0 || sol.Status != "INFEASIBLE" {
		t.Errorf("malformed empty-set document: %s", out.String())
	}
}
