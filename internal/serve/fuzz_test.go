package serve

// FuzzServe posts arbitrary bodies and query strings to the two solve
// endpoints of an in-process server. Whatever arrives, the response
// must be a taxonomy document: a known status whose HTTP code is the
// one the status table assigns, and never ERROR/500 — hostile input is
// INVALID, a spent budget NO_ANSWER.
//
//	go test -run='^$' -fuzz='^FuzzServe$' -fuzztime=30s ./internal/serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// taxonomy lists every status a solve response may carry.
var taxonomy = map[string]bool{
	StatusOptimal: true, StatusFeasible: true, StatusInfeasible: true, StatusNoAnswer: true,
	StatusInvalid: true, StatusError: true, StatusUnavailable: true, StatusNotFound: true,
}

func FuzzServe(f *testing.F) {
	trees, err := filepath.Glob("../../testdata/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range trees {
		body, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, "", false)
		f.Add(body, "k=2&timeoutMillis=20", true)
		f.Add(body, "stream=1", false)
	}
	for _, body := range []string{
		"", "{", "null", "[]", `{"top":"t"}`, `{"name":"x","top":"t","events":[],"gates":[]}`,
		`{"top":"t","events":[{"id":"a","probability":2}]}`,
		`{"top":"t","events":[{"id":"a","probability":0.1}],"gates":[{"id":"t","type":"or","inputs":["t"]}]}`,
		`{"top":"t","events":[{"id":"a","probability":0.1}],"gates":[{"id":"t","type":"atleast","k":5,"inputs":["a"]}]}`,
	} {
		f.Add([]byte(body), "", false)
		f.Add([]byte(body), "k=0&stream=true", true)
	}

	s := New(Config{Workers: 1, MaxTimeout: 100 * time.Millisecond, CacheEntries: 16})
	f.Cleanup(func() { s.Close() })
	handler := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte, query string, topk bool) {
		path := "/v1/analyze"
		if topk {
			path = "/v1/topk"
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)

		data := rec.Body.Bytes()
		code := rec.Code
		if strings.HasPrefix(rec.Header().Get("Content-Type"), "text/event-stream") {
			// A stream commits 200 before the verdict is known; the
			// verdict is the terminal solution frame.
			if code != http.StatusOK {
				t.Fatalf("stream answered %d", code)
			}
			if data = solutionFrame(data); data == nil {
				t.Fatalf("stream has no solution frame:\n%s", rec.Body)
			}
		}
		var doc Document
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("response is not a JSON document (%v):\n%s", err, data)
		}
		if !taxonomy[doc.Status] {
			t.Fatalf("status %q is not a taxonomy row:\n%s", doc.Status, data)
		}
		if doc.Status == StatusError || code == http.StatusInternalServerError {
			t.Fatalf("internal failure (%d):\n%s", code, data)
		}
		if !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/event-stream") && code != HTTPStatus(doc.Status) {
			t.Fatalf("status %s answered %d, want %d", doc.Status, code, HTTPStatus(doc.Status))
		}
	})
}

// solutionFrame returns the data line of an SSE body's "solution"
// frame, or nil.
func solutionFrame(body []byte) []byte {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, len(body)+1)
	for inFrame := false; sc.Scan(); {
		line := sc.Text()
		switch {
		case line == "event: solution":
			inFrame = true
		case inFrame && strings.HasPrefix(line, "data: "):
			return []byte(strings.TrimPrefix(line, "data: "))
		}
	}
	return nil
}
