package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpmcs4fta/internal/portfolio"
)

func writeWCNF(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "inst.wcnf")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The small instance from the maxsat tests: optimum 5 by setting
// variables 1 and 2 (falsifying the weight-2 and weight-3 softs).
const smallWCNF = `p wcnf 3 5 16
16 1 3 0
16 2 3 0
2 -1 0
3 -2 0
10 -3 0
`

func TestRunOptimum(t *testing.T) {
	path := writeWCNF(t, smallWCNF)
	engines := []string{"portfolio"}
	for _, e := range portfolio.DefaultEngines() {
		engines = append(engines, e.Name)
	}
	for _, engine := range engines {
		t.Run(engine, func(t *testing.T) {
			var out bytes.Buffer
			code, err := run([]string{"-input", path, "-engine", engine}, &out)
			if err != nil {
				t.Fatal(err)
			}
			if code != 30 {
				t.Errorf("exit code %d, want 30", code)
			}
			text := out.String()
			if !strings.Contains(text, "o 5\n") {
				t.Errorf("optimum line missing:\n%s", text)
			}
			if !strings.Contains(text, "s OPTIMUM FOUND") {
				t.Errorf("status line missing:\n%s", text)
			}
			if !strings.Contains(text, "v 1 2 -3") {
				t.Errorf("model line missing or wrong:\n%s", text)
			}
		})
	}
}

func TestRun2022Format(t *testing.T) {
	// The same small instance in the 2022 MaxSAT-evaluation dialect.
	path := writeWCNF(t, "h 1 3 0\nh 2 3 0\n2 -1 0\n3 -2 0\n10 -3 0\n")
	var out bytes.Buffer
	code, err := run([]string{"-input", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 30 || !strings.Contains(out.String(), "o 5\n") {
		t.Errorf("code %d output:\n%s", code, out.String())
	}
}

func TestRunUnsat(t *testing.T) {
	path := writeWCNF(t, "p wcnf 1 2 10\n10 1 0\n10 -1 0\n")
	var out bytes.Buffer
	code, err := run([]string{"-input", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 20 || !strings.Contains(out.String(), "s UNSATISFIABLE") {
		t.Errorf("code %d output:\n%s", code, out.String())
	}
}

func TestRunQuiet(t *testing.T) {
	path := writeWCNF(t, smallWCNF)
	var out bytes.Buffer
	if _, err := run([]string{"-input", path, "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "\nv ") {
		t.Errorf("quiet mode printed a model:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	path := writeWCNF(t, smallWCNF)
	tests := []struct {
		name string
		args []string
	}{
		{"missing input", nil},
		{"nonexistent", []string{"-input", "/no/such/file"}},
		{"bad engine", []string{"-input", path, "-engine", "quantum"}},
		{"retired plain wmsu1", []string{"-input", path, "-engine", "wmsu1"}},
		{"malformed wcnf", []string{"-input", writeWCNF(t, "garbage\n")}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out bytes.Buffer
			if _, err := run(tt.args, &out); err == nil {
				t.Error("expected error")
			}
		})
	}
}
