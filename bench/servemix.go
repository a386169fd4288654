package main

import (
	"context"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"mpmcs4fta/internal/core"
)

const (
	// hotSet is the number of trees resubmitted as cache hits. Each is
	// POSTed once after the set-up, before the timed phase.
	hotSet = 64
	// openInterval paces phase A at 50 requests per second, well below
	// the service's two-connection capacity on this mix (about 200 per
	// second on two vCPUs), so phase A measures latency, not overload.
	openInterval = 20 * time.Millisecond
	// missPool is the number of distinct never-seen trees. A 25 s run's
	// phase A sends 180 misses, three whole cycles of the pool.
	missPool = 60
	// maxClosedRate bounds phase B's request rate when preparing its
	// requests; phase B ends early if it runs out.
	maxClosedRate = 400
	// variants is the number of renamed documents per hot tree.
	variants = 8
)

// missSlots marks the never-seen trees in every block of ten requests;
// the other seven resubmit a hot tree. The share is exact and the slots
// fixed, so no two misses are closer than three request intervals (60 ms
// in phase A) and the tail percentiles measure misses rather than how
// often a seed's draw made two misses collide.
var missSlots = [10]bool{true, false, false, true, false, false, true, false, false, false}

// serveRequests lays out n requests over the pinned hot set and
// never-seen pool. Hits and misses each cycle through their trees, every
// cycle in a new order drawn from seed, so every tree is sent about
// equally often whatever the seed; the seed also picks each hit's
// renaming. Each cycle of misses prefixes every event id (see prefixed),
// so every miss is new to the cache while its solve stays the same.
func serveRequests(hot, pool []*item, seed int64, n int) ([]*request, error) {
	rng := workloadRNG(seed, "serve-mix")
	var hotOrder, poolOrder []int
	bodies := make([][][]byte, len(hot))
	for h, it := range hot {
		for v := 0; v < variants; v++ {
			body, err := renamed(it.doc, rng)
			if err != nil {
				return nil, err
			}
			bodies[h] = append(bodies[h], body)
		}
	}
	var reqs []*request
	for hits, next := 0, 0; len(reqs) < n; {
		for _, miss := range missSlots {
			if !miss {
				if hits%len(hot) == 0 {
					hotOrder = rng.Perm(len(hot))
				}
				h := hotOrder[hits%len(hot)]
				reqs = append(reqs, &request{body: bodies[h][rng.Intn(variants)], it: hot[h], hot: true})
				hits++
				continue
			}
			if next%len(pool) == 0 {
				poolOrder = rng.Perm(len(pool))
			}
			it := pool[poolOrder[next%len(pool)]]
			q := &request{body: it.body, it: it}
			if cycle := next / len(pool); cycle > 0 {
				q.prefix = "v" + strconv.Itoa(cycle) + "."
				var err error
				if q.body, err = prefixed(it.doc, q.prefix); err != nil {
					return nil, err
				}
			}
			reqs = append(reqs, q)
			next++
		}
	}
	return reqs[:n], nil
}

// runServeMix runs the service workload: an in-process mpmcsd, set up
// with a fixed warm-up and then the pinned hot set; phase A is an open
// loop at 50 requests per second over 48% of the budget, phase B a
// closed loop on one connection over the rest. 70% of requests
// resubmit a hot tree renamed and permuted, 30% submit a never-seen one.
// Of a 25 s run, phase A takes 12 s: 600 requests, whose 180 misses are
// three whole cycles of the never-seen pool.
func runServeMix(cfg runConfig) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	procs := runtime.GOMAXPROCS(0)
	phaseA := cfg.budget * 12 / 25
	phaseB := cfg.budget - phaseA
	nA := int(phaseA / openInterval)
	nB := int(phaseB.Seconds() * maxClosedRate)

	c, err := loadCorpus("serve-mix", cfg.small)
	if err != nil {
		return nil, err
	}
	hot := c.trees
	reqs, err := serveRequests(hot, c.misses, cfg.seed, nA+nB)
	if err != nil {
		return nil, err
	}
	setupReqs, err := pairRequests(c.setup, rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, err
	}
	rep.notef("hot set %d trees, %d never-seen trees, set-up %d trees", len(hot), len(c.misses), len(c.setup))

	resetPeakRSS()
	var tr *spanAgg
	if cfg.trace {
		tr = newSpanAgg()
	}
	var (
		svc    *service
		setups []float64
	)
	for r := 0; r < cfg.size(setupReps); r++ {
		if svc != nil {
			svc.close()
		}
		start := time.Now()
		svc = startService(tr)
		for _, q := range setupReqs {
			resp := response{req: q}
			svc.post(&resp)
			rep.recordResponse(&resp)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer svc.close()

	fillStart := time.Now()
	for _, it := range hot {
		resp := response{req: &request{body: it.body, it: it}}
		svc.post(&resp)
		rep.recordResponse(&resp)
	}
	rep.notef("hot set filled in %.3f s", time.Since(fillStart).Seconds())

	if len(reqs) < nA {
		nA = len(reqs)
	}
	if tr != nil {
		tr.on.Store(true) // the set-up and the fill stay out of the trace
	}
	rss := startRSSSampler()
	open := svc.openLoop(reqs[:nA], openInterval, procs)
	// One connection: a closed loop on two kept both vCPUs busy, and its
	// rate then followed how much of the second vCPU the host gave, run
	// to run (183-270 per second over five runs, against 153-176 on one).
	closed, elapsedB := svc.closedLoop(reqs[nA:], phaseB, 1)
	peaks := rss.finish()
	counters, err := svc.scrape()
	if err != nil {
		return nil, err
	}
	all := append(append([]response(nil), open...), closed...)
	for i := range all {
		rep.recordResponse(&all[i])
	}
	if len(closed) == len(reqs)-nA {
		rep.notef("phase B used every prepared request")
	}

	if !cfg.trace {
		// Phase A's percentiles are read over windows of the window's
		// percentile: in an open loop one stall of the machine delays
		// every request behind it, and a change to the program moves
		// every window. p50 is the median window. p90 is the lower
		// quartile of windows, because a slow spell of the machine
		// raises the tail for seconds at a time: the median window's p90
		// spread 26% over ten runs, with two runs at 29-31 ms against
		// 17-21.
		var p50, p90 []float64
		for _, w := range dueWindows(open, phaseA, window) {
			p50 = append(p50, median(w))
			p90 = append(p90, quantile(w, 0.9))
		}
		rep.add("p50_ms", median(p50), "ms", len(open))
		rep.add("p90_ms", quantile(p90, 0.25), "ms", len(open))
		// Phase B's rate over the whole phase: each never-seen tree comes
		// up about ten times in it, so every run weighs them alike. A
		// median over 1 s windows spread more, because the machine's
		// speed shifts for seconds at a time and a median jumps between
		// the fast and the slow level.
		rep.add("ops_per_s", ratio(float64(len(closed)), elapsedB.Seconds()), "1/s", len(closed))
		rep.add("setup_s", median(setups), "s", len(setups))
		rep.add("peak_rss_mb", median(peaks), "MiB", len(peaks))
		return rep, nil
	}

	// Coverage on a miss: the share of its latency the pipeline's own
	// top-level spans account for; the rest is HTTP, parse, hash, queue
	// and JSON.
	var missMS float64
	misses := 0
	for i := range all {
		if !all[i].doc.Cached {
			missMS += ms(all[i].latency())
			misses++
		}
	}
	rep.add("trace_coverage", ratio(tr.children("analyze"), missMS), "ratio", misses)
	probe := spreadPick(hot, cfg.size(16))
	rep.merge(traceOverhead(ctx, probe, analyzeOp, analyzeTimeout))
	rep.merge(topkLayer(topkProbe(ctx, probe)))
	layers, _, err := layerProbe(ctx, probe, tr)
	if err != nil {
		return nil, err
	}
	rep.merge(layers)
	// The service's overhead on a miss: its latency against the same
	// tree's default analysis run directly, for the first 16 phase-A
	// misses.
	direct := make(map[*item]float64)
	for i := 0; i < len(open) && len(direct) < 16; i++ {
		if it := open[i].req.it; !open[i].doc.Cached {
			start := time.Now()
			if _, err := core.Analyze(ctx, it.tree, core.Options{Timeout: analyzeTimeout}); err == nil {
				direct[it] = ms(time.Since(start))
			}
		}
	}
	rep.merge(serveLayer(open, all, counters, direct, layers["ft.parse_ms"].Value, layers["ft.hash_ms"].Value))
	return rep, nil
}
