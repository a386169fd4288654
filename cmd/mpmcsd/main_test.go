package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
)

// TestServeLifecycle boots the real binary path (run) on an ephemeral
// port, solves a testdata tree twice over HTTP — the second submission
// must be a cache hit — and shuts down cleanly.
func TestServeLifecycle(t *testing.T) {
	ready := make(chan string, 1)
	shutdown := make(chan struct{})
	done := make(chan int, 1)
	var stderr bytes.Buffer
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-workers", "2", "-sequential"},
			&stderr, ready, shutdown)
	}()
	addr := <-ready

	tree, err := os.ReadFile("../../testdata/fps.json")
	if err != nil {
		t.Fatal(err)
	}
	for round, wantCached := range []bool{false, true} {
		resp, err := http.Post("http://"+addr+"/v1/analyze", "application/json", bytes.NewReader(tree))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Status string `json:"status"`
			Cached bool   `json:"cached"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 || doc.Status != "OPTIMAL" || doc.Cached != wantCached {
			t.Fatalf("round %d: HTTP %d status %s cached=%v, want 200 OPTIMAL cached=%v",
				round, resp.StatusCode, doc.Status, doc.Cached, wantCached)
		}
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "mpmcsd_cache_hits 1") {
		t.Errorf("/metrics does not report the cache hit:\n%s", metrics)
	}

	close(shutdown)
	if code := <-done; code != 0 {
		t.Errorf("exit code %d, want 0 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "listening on http://") {
		t.Errorf("startup line missing from stderr: %q", stderr.String())
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		{"-decompose-workers", "2"},
		{"-no-decompose"},
	} {
		var stderr bytes.Buffer
		if code := run(args, &stderr, nil, nil); code != 2 {
			t.Errorf("%v: exit code %d, want 2 (usage)", args, code)
		}
		if !strings.Contains(stderr.String(), "flag provided but not defined") {
			t.Errorf("%v: stderr %q does not name the undefined flag", args, stderr.String())
		}
	}
}
