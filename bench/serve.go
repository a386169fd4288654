package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpmcs4fta/internal/core"
	"mpmcs4fta/internal/serve"
)

// analyzePath is the request every serve-mix op sends; the 2 s budget
// is the per-op deadline of the service workload.
const analyzePath = "/v1/analyze?timeoutMillis=2000"

// request is one POST /v1/analyze.
type request struct {
	body   []byte
	it     *item  // the tree the answer is checked against
	prefix string // event-id prefix of the body, stripped before checking
	hot    bool   // a resubmitted hot tree: mpmcsd must answer from its cache
}

// response is what a sender records for one request.
type response struct {
	req        *request
	due, sent  time.Time // sent ≥ due; due is zero in closed loops
	done       time.Time
	backlog    int // requests due but not yet sent when this one went out, itself included
	err        error
	httpStatus int
	doc        answerDoc
}

func (r *response) latency() time.Duration {
	if r.due.IsZero() {
		return r.done.Sub(r.sent)
	}
	return r.done.Sub(r.due)
}

// answerDoc is the part of mpmcsd's response document the oracle needs.
type answerDoc struct {
	Status   string `json:"status"`
	Cached   bool   `json:"cached"`
	Error    string `json:"error"`
	Solution *struct {
		MPMCS       []core.SolutionEvent `json:"mpmcs"`
		Probability float64              `json:"probability"`
		LogCost     float64              `json:"logCost"`
		Status      string               `json:"status"`
	} `json:"solution"`
}

// check applies the answer oracle to one response; "" means correct.
func (r *response) check() string {
	switch {
	case r.err != nil:
		return r.err.Error()
	case r.httpStatus != http.StatusOK || r.doc.Status != optimal:
		return fmt.Sprintf("HTTP %d status %s %s", r.httpStatus, r.doc.Status, r.doc.Error)
	case r.req.hot && !r.doc.Cached:
		return "resubmitted hot tree missed the cache"
	case r.doc.Solution == nil:
		return "response has no solution"
	}
	s := r.doc.Solution
	for i := range s.MPMCS {
		s.MPMCS[i].ID = strings.TrimPrefix(s.MPMCS[i].ID, r.req.prefix)
	}
	return checkSolution(r.req.it, &core.Solution{MPMCS: s.MPMCS, Probability: s.Probability, LogCost: s.LogCost, Status: s.Status})
}

// service is an in-process mpmcsd behind a loopback HTTP listener, with
// a client limited to GOMAXPROCS connections.
type service struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

func startService(tr *spanAgg) *service {
	procs := runtime.GOMAXPROCS(0)
	cfg := serve.Config{Workers: procs}
	if tr != nil {
		cfg.Core.Tracer = tr
	}
	srv := serve.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	transport := &http.Transport{MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs, DisableCompression: true}
	return &service{srv: srv, ts: ts, client: &http.Client{Transport: transport}}
}

func (s *service) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
}

// post sends one request and fills in the response; the latency ends
// when the whole body has arrived, before it is decoded.
func (s *service) post(r *response) {
	r.sent = time.Now()
	resp, err := s.client.Post(s.ts.URL+analyzePath, "application/json", bytes.NewReader(r.req.body))
	if err != nil {
		r.done, r.err = time.Now(), err
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.httpStatus = resp.StatusCode
	if err == nil {
		err = json.Unmarshal(data, &r.doc)
	}
	r.err = err
}

// openLoop sends reqs on a fixed schedule, one every interval, over
// senders connections. A request whose connection is still busy when it
// falls due waits, and that wait counts: latency runs from the due time.
func (s *service) openLoop(reqs []*request, interval time.Duration, senders int) []response {
	out := make([]response, len(reqs))
	var next atomic.Int64
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(reqs) {
					return
				}
				r := &out[j]
				r.req = reqs[j]
				r.due = start.Add(time.Duration(j) * interval)
				time.Sleep(time.Until(r.due))
				r.backlog = int(time.Since(start)/interval) + 1 - j
				s.post(r)
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop sends reqs back to back over senders connections until d
// has passed or reqs run out, and returns the responses and the time
// from the start until the last one completed.
func (s *service) closedLoop(reqs []*request, d time.Duration, senders int) ([]response, time.Duration) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		out  []response
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				j := int(next.Add(1) - 1)
				if j >= len(reqs) {
					return
				}
				r := response{req: reqs[j]}
				s.post(&r)
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// dueWindows groups the latencies (ms) of an open loop that lasted phase
// by the window of width w their requests fell due in; a phase shorter
// than one window is one window.
func dueWindows(open []response, phase, w time.Duration) [][]float64 {
	if len(open) == 0 {
		return nil
	}
	start := open[0].due
	n := max(1, int(phase/w))
	out := make([][]float64, n)
	for i := range open {
		if k := int(open[i].due.Sub(start) / w); k < n {
			out[k] = append(out[k], ms(open[i].latency()))
		}
	}
	return out
}

// scrape reads mpmcsd's counters from /metrics.
func (s *service) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.ts.URL + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
			out[fields[0]] = v
		}
	}
	return out, sc.Err()
}

// pairRequests returns, for each item, a first submission (a cache miss)
// followed by a renamed resubmission (a cache hit).
func pairRequests(items []*item, rng *rand.Rand) ([]*request, error) {
	out := make([]*request, 0, 2*len(items))
	for _, it := range items {
		body, err := renamed(it.doc, rng)
		if err != nil {
			return nil, err
		}
		out = append(out, &request{body: it.body, it: it}, &request{body: body, it: it, hot: true})
	}
	return out, nil
}

// serveStatuses are the taxonomy rows a solve request can end in under
// this benchmark's load, each reported as a count.
var serveStatuses = []string{serve.StatusOptimal, serve.StatusFeasible, serve.StatusNoAnswer, serve.StatusError}

// serveLayer derives the service-layer metrics from the responses of an
// open-loop phase (open), every response of the run (all), the server's
// counters, and the direct core.Analyze time of some missed trees.
func serveLayer(open, all []response, counters map[string]float64, direct map[*item]float64, parseMS, hashMS float64) map[string]metric {
	var hit, miss, lat, late []float64
	backlog := 0
	for i := range open {
		r := &open[i]
		l := ms(r.latency())
		lat = append(lat, l)
		late = append(late, ms(r.sent.Sub(r.due)))
		backlog = max(backlog, r.backlog)
		if r.doc.Cached {
			hit = append(hit, l)
		} else {
			miss = append(miss, l)
		}
	}
	var overhead []float64
	statuses := make(map[string]float64)
	for i := range all {
		r := &all[i]
		statuses[r.doc.Status]++
		if d, ok := direct[r.req.it]; ok && !r.doc.Cached && d > 0 {
			overhead = append(overhead, ms(r.latency())/d)
		}
	}
	hitP50 := median(hit)
	m := map[string]metric{
		"serve.hit_frac":          {ratio(counters["mpmcsd_cache_hits"], counters["mpmcsd_requests"]), "ratio", int(counters["mpmcsd_requests"])},
		"serve.hit_p50_ms":        {hitP50, "ms", len(hit)},
		"serve.miss_p50_ms":       {median(miss), "ms", len(miss)},
		"serve.p99_ms":            {quantile(lat, 0.99), "ms", len(lat)},
		"serve.hit_residual_ms":   {hitP50 - parseMS - hashMS, "ms", len(hit)},
		"serve.miss_over_analyze": {median(overhead), "ratio", len(overhead)},
		"serve.gen_late_p99_ms":   {quantile(late, 0.99), "ms", len(late)},
		"serve.backlog_max":       {float64(backlog), "count", len(open)},
	}
	for _, s := range serveStatuses {
		m["serve.status."+s] = metric{statuses[s], "count", len(all)}
	}
	return m
}
