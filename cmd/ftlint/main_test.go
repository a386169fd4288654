package main

import (
	"bytes"
	"strings"
	"testing"
)

// goldens are loaded relative to this package directory.
const (
	weightsGolden = "../../internal/lint/testdata/src/weights"
	cleanPackage  = "../../internal/fp"
)

func TestList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, name := range []string{"ctxpoll", "weightsafe", "floatcmp", "guardedby", "spanclose", "goroutinewait",
		"arenaref", "lockorder", "exactlyonce", "errtaxonomy"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output lacks analyzer %q", name)
		}
	}
}

func TestFindingsExitOne(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-c", "weightsafe", weightsGolden}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d on a golden with findings, want 1 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(out.String(), "[weightsafe]") {
		t.Errorf("stdout lacks weightsafe findings:\n%s", out.String())
	}
}

func TestCleanExitZero(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{cleanPackage}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d on a clean package, want 0 (stdout: %s, stderr: %s)",
			code, out.String(), errOut.String())
	}
	if out.String() != "" {
		t.Errorf("clean run printed findings:\n%s", out.String())
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	cases := [][]string{
		{"-c", "nosuchanalyzer", cleanPackage},
		{"./does/not/exist"},
		{"-badflag"},
		{"-json", cleanPackage},
		{"-baseline", "x", cleanPackage},
		{"-V=full"},
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) exited %d, want 2", args, code)
		}
	}
}
