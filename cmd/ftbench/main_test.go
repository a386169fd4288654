package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("experiment %s missing from list", id)
		}
	}
}

func TestRunE1MatchesPaper(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "e1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "paper agreement: MATCH") {
		t.Errorf("E1 did not match the paper:\n%s", out.String())
	}
}

func TestRunE2TableI(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "e2"}, &out); err != nil {
		t.Fatal(err)
	}
	// Every paper weight must appear, printed to 5 decimals.
	for _, w := range []string{"1.60944", "2.30259", "6.90776", "6.21461", "2.99573"} {
		if !strings.Contains(out.String(), w) {
			t.Errorf("Table I value %s missing:\n%s", w, out.String())
		}
	}
}

func TestRunE3JSON(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "e3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\"mpmcs\"") {
		t.Errorf("E3 missing JSON document:\n%s", out.String())
	}
}

func TestRunSmallScalingExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling experiments are slow")
	}
	var out bytes.Buffer
	err := run([]string{"-exp", "e4,e8", "-sizes", "20,50", "-timeout", "60s"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "== E4") || !strings.Contains(out.String(), "== E8") {
		t.Errorf("missing experiment headers:\n%s", out.String())
	}
	if strings.Contains(out.String(), "error") {
		t.Errorf("experiment reported an error:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string // substring of the error, when set
	}{
		{"unknown experiment", []string{"-exp", "e99"}, ""},
		{"unknown id in a list", []string{"-exp", "e1,e99"}, ""},
		{"no id", []string{"-exp", " , "}, ""},
		{"bad size", []string{"-exp", "e4", "-sizes", "abc"}, ""},
		{"size too small", []string{"-exp", "e4", "-sizes", "1"}, ""},
		{"no fleet mode", []string{"-fleet", "../../testdata"}, "flag provided but not defined"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tt.args, &out)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error = %q, want it to contain %q", err, tt.want)
			}
		})
	}
}

func TestCapSizes(t *testing.T) {
	got := capSizes([]int{10, 500, 5000}, 1000)
	if len(got) != 2 || got[0] != 10 || got[1] != 500 {
		t.Errorf("capSizes = %v", got)
	}
	if got := capSizes([]int{9000}, 1000); len(got) != 1 || got[0] != 1000 {
		t.Errorf("capSizes fallback = %v", got)
	}
}

func TestFmtDur(t *testing.T) {
	tests := []struct {
		give time.Duration
		want string
	}{
		{1500 * time.Nanosecond, "1.5µs"},
		{800 * time.Nanosecond, "0.8µs"},
		{20 * time.Millisecond, "20.00ms"},
		{3 * time.Second, "3.00s"},
	}
	for _, tt := range tests {
		if got := fmtDur(tt.give); got != tt.want {
			t.Errorf("fmtDur(%v) = %q, want %q", tt.give, got, tt.want)
		}
	}
}
