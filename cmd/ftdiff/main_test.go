package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunOverTestdataTrees(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata trees: %v", err)
	}
	txt, _ := filepath.Glob("../../testdata/*.txt")
	paths = append(paths, txt...)

	var out strings.Builder
	code, err := run(append([]string{"-topk", "2"}, paths...), &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if code != 0 {
		t.Fatalf("exit code %d, want 0:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "all engines agree") {
		t.Errorf("missing agreement summary:\n%s", out.String())
	}
}

func TestRunRandomInstances(t *testing.T) {
	var out strings.Builder
	code, err := run([]string{"-random", "5", "-events", "8", "-seed", "11", "-v"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Fatalf("exit code %d, want 0:\n%s", code, out.String())
	}
	if got := strings.Count(out.String(), "agreement"); got != 5 {
		t.Errorf("verbose mode printed %d reports, want 5:\n%s", got, out.String())
	}
}

func TestRunDeadlineMode(t *testing.T) {
	var out strings.Builder
	code, err := run([]string{"-deadline", "50ms", "-random", "3", "-events", "12", "-seed", "7"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if code != 0 {
		t.Fatalf("exit code %d, want 0:\n%s", code, out.String())
	}

	// A negative deadline is a usage error.
	out.Reset()
	if code, _ := run([]string{"-deadline", "-1s", "-random", "1"}, &out); code != 2 {
		t.Errorf("negative deadline: exit code %d, want 2", code)
	}
}

func TestRunWCNFInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "small.wcnf")
	content := "p wcnf 3 4 100\n100 1 2 0\n100 -1 3 0\n5 1 0\n3 -3 0\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	code, err := run([]string{path}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Fatalf("exit code %d, want 0:\n%s", code, out.String())
	}
}

func TestRunUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                   // nothing to check
		{"-random", "-3"},    // negative count
		{"nonexistent.json"}, // unreadable file
		{"main.go"},          // unknown extension
		// Removed flags: the tree alone would pass, so exit 2 is the flag.
		{"-obs-listen", "127.0.0.1:0", "../../testdata/fps.json"},
	}
	for _, args := range cases {
		var out strings.Builder
		code, _ := run(args, &out)
		if code != 2 {
			t.Errorf("args %v: exit code %d, want 2", args, code)
		}
	}
}

func TestRunMalformedTree(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(path, []byte("gate g and g\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	code, err := run([]string{path}, &out)
	if code != 2 || err == nil {
		t.Errorf("malformed tree: code %d err %v, want code 2 and error", code, err)
	}
}
