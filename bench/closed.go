package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"mpmcs4fta/internal/core"
	"mpmcs4fta/internal/fp"
	"mpmcs4fta/internal/ft"
)

const (
	optimal = "OPTIMAL"
	// Per-op budgets: an op that runs out of them counts as failed.
	analyzeTimeout = 10 * time.Second
	topkTimeout    = 20 * time.Second
	// topK is the enumeration depth of topk-deep.
	topK = 20
	// setupReps is how often a run repeats its set-up; setup_s is the
	// median.
	setupReps = 15
)

// opResult is one op's outcome. status is the program's own verdict
// (OPTIMAL for a definitive answer); fail is the oracle's complaint, ""
// when the answer is correct.
type opResult struct {
	latency time.Duration
	status  string
	fail    string
	rounds  []*core.Solution // top-k only
}

// op runs one operation on an item under a budget, tracing it when tr
// is recording.
type op func(ctx context.Context, it *item, tr *spanAgg, budget time.Duration) opResult

// closedSpec is a single-client closed-loop workload over a pinned
// corpus.
type closedSpec struct {
	op     op
	budget time.Duration // per-op budget
	// topk marks the enumeration workload: its traced run reads the
	// top-k layer from its own ops instead of a separate probe.
	topk bool
}

var (
	analyzeLoop = closedSpec{op: analyzeOp, budget: analyzeTimeout}
	topkLoop    = closedSpec{op: topkOp, budget: topkTimeout, topk: true}
)

// cliRun is one mpmcs4fta invocation's work around an analysis: read
// the tree document, run solve under the per-op budget (traced when tr
// records), and write the answer the way mpmcs4fta writes it. Only those
// three steps are timed; check then holds the written document to the
// oracle. solve returns the answer and the program's own verdict.
func cliRun(ctx context.Context, it *item, tr *spanAgg, budget time.Duration,
	solve func(context.Context, *ft.Tree, core.Options) (any, string, error), check func(doc []byte) string) opResult {
	start := time.Now()
	tree, err := ft.ReadJSON(bytes.NewReader(it.body))
	parsed := time.Now()
	if err != nil {
		return opResult{latency: parsed.Sub(start), status: "ERROR", fail: "parse: " + err.Error()}
	}
	opts := core.Options{Timeout: budget}
	if tr.recording() {
		opts.Tracer = tr
	}
	answer, status, err := solve(ctx, tree, opts)
	solved := time.Now()
	var doc []byte
	if err == nil {
		doc, err = encodeIndented(answer)
	}
	done := time.Now()
	tr.observe("bench:parse", parsed.Sub(start))
	tr.observe("bench:json", done.Sub(solved))
	tr.observe("bench:op", done.Sub(start))
	if err != nil {
		return opResult{latency: done.Sub(start), status: "ERROR", fail: err.Error()}
	}
	return opResult{latency: done.Sub(start), status: status, fail: check(doc)}
}

// analyzeOp is mpmcs4fta's default invocation: the MPMCS of one tree.
func analyzeOp(ctx context.Context, it *item, tr *spanAgg, budget time.Duration) opResult {
	return cliRun(ctx, it, tr, budget, func(ctx context.Context, tree *ft.Tree, opts core.Options) (any, string, error) {
		sol, err := core.Analyze(ctx, tree, opts)
		if err != nil {
			return nil, "", err
		}
		return sol, sol.Status, nil
	}, func(doc []byte) string {
		var back core.Solution
		if err := json.Unmarshal(doc, &back); err != nil {
			return "solution JSON: " + err.Error()
		}
		return checkSolution(it, &back)
	})
}

// topkOp is mpmcs4fta -topk 20: the ranked top 20 cut sets of one tree.
func topkOp(ctx context.Context, it *item, tr *spanAgg, budget time.Duration) opResult {
	var (
		sols     []*core.Solution
		complete bool
	)
	res := cliRun(ctx, it, tr, budget, func(ctx context.Context, tree *ft.Tree, opts core.Options) (any, string, error) {
		var err error
		sols, complete, err = core.AnalyzeTopKComplete(ctx, tree, topK, opts)
		if !complete {
			return sols, "INCOMPLETE", err
		}
		return sols, optimal, err
	}, func(doc []byte) string {
		var back []*core.Solution
		if err := json.Unmarshal(doc, &back); err != nil {
			return "solution JSON: " + err.Error()
		}
		return checkTopK(it, back, complete)
	})
	res.rounds = sols
	return res
}

// encodeIndented renders a document the way mpmcs4fta writes it.
func encodeIndented(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, fmt.Errorf("encode solution: %w", err)
	}
	return buf.Bytes(), nil
}

// checkSolution is the answer oracle for one MPMCS: the answer must be
// OPTIMAL, pass core.VerifySolution, and match the reference probability.
// Probabilities are compared rather than sets, because distinct cut sets
// of equal probability are all correct answers.
func checkSolution(it *item, sol *core.Solution) string {
	if len(it.ref) == 0 {
		return "no reference answer"
	}
	if sol.Status != optimal {
		return "status " + sol.Status
	}
	if err := core.VerifySolution(it.tree, sol); err != nil {
		return err.Error()
	}
	if !fp.EqTol(sol.Probability, it.ref[0], 1e-9) {
		return fmt.Sprintf("probability %.12g, reference %.12g", sol.Probability, it.ref[0])
	}
	return ""
}

// checkTopK holds a ranking to the exact BDD ranking rank by rank: it
// must be complete, every member a verified OPTIMAL minimal cut set, and
// the probabilities non-increasing and equal to the reference's.
func checkTopK(it *item, sols []*core.Solution, complete bool) string {
	if len(it.ref) == 0 {
		return "no reference answer"
	}
	if !complete {
		return "enumeration incomplete"
	}
	if len(sols) != len(it.ref) {
		return fmt.Sprintf("%d cut sets, reference has %d", len(sols), len(it.ref))
	}
	for r, s := range sols {
		if s.Status != optimal {
			return fmt.Sprintf("rank %d: status %s", r+1, s.Status)
		}
		if err := core.VerifySolution(it.tree, s); err != nil {
			return fmt.Sprintf("rank %d: %v", r+1, err)
		}
		if r > 0 && s.Probability > sols[r-1].Probability && !fp.EqTol(s.Probability, sols[r-1].Probability, 1e-9) {
			return fmt.Sprintf("rank %d: probability rises to %.12g", r+1, s.Probability)
		}
		if !fp.EqTol(s.Probability, it.ref[r], 1e-9) {
			return fmt.Sprintf("rank %d: probability %.12g, reference %.12g", r+1, s.Probability, it.ref[r])
		}
	}
	return ""
}

// runClosed loads a closed-loop workload's pinned corpus, sets it up,
// and runs shuffled passes over the corpus from one client until the
// budget is spent. Only whole passes run, so every run times each tree
// equally often.
func runClosed(name string, spec closedSpec, cfg runConfig) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	c, err := loadCorpus(name, cfg.small)
	if err != nil {
		return nil, err
	}
	items := c.trees
	resetPeakRSS()

	var setups []float64
	for r := 0; r < cfg.size(setupReps); r++ {
		start := time.Now()
		for _, it := range c.setup {
			rep.record(it, spec.op(ctx, it, nil, spec.budget))
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var tr *spanAgg
	if cfg.trace {
		tr = newSpanAgg()
		tr.on.Store(true)
	}
	var (
		lat     []float64                       // ms
		perTree = make([][]float64, len(items)) // ms, by corpus index
		rounds  [][]roundStat
		passes  int
	)
	rss := startRSSSampler()
	order := rand.New(rand.NewSource(cfg.seed))
	for start := time.Now(); passes == 0 || time.Since(start) < cfg.budget; passes++ {
		for _, i := range order.Perm(len(items)) {
			res := spec.op(ctx, items[i], tr, spec.budget)
			rep.record(items[i], res)
			lat = append(lat, ms(res.latency))
			perTree[i] = append(perTree[i], ms(res.latency))
			if tr != nil && res.rounds != nil {
				rounds = append(rounds, roundStats(res.rounds))
			}
		}
	}
	peaks := rss.finish()
	rep.notef("%d passes over %d trees; set-up %d trees, %d times", passes, len(items), len(c.setup), len(setups))

	if !cfg.trace {
		rep.add("p50_ms", median(lat), "ms", len(lat))
		rep.add("p90_ms", quantile(lat, 0.9), "ms", len(lat))
		// One client's rate: trees per second of op time, each tree taken
		// at its median latency over the run's passes. Every tree weighs
		// the same in every run, and one slow race on a tree (the
		// portfolio's latency on one tree swings several-fold from pass to
		// pass) does not move the rate the way it moves the mean.
		typical := 0.0
		for _, l := range perTree {
			typical += median(l)
		}
		rep.add("ops_per_s", ratio(float64(len(items)), typical/1000), "1/s", len(lat))
		rep.add("setup_s", median(setups), "s", len(setups))
		rep.add("peak_rss_mb", median(peaks), "MiB", len(peaks))
		return rep, nil
	}

	probe := spreadPick(items, cfg.size(16))
	root := "analyze"
	if spec.topk {
		root = "analyze-topk"
	} else {
		rounds = topkProbe(ctx, probe)
	}
	covered := sum(tr.named("bench:parse")) + tr.children(root) + sum(tr.named("bench:json"))
	rep.add("trace_coverage", ratio(covered, sum(tr.named("bench:op"))), "ratio", len(lat))
	rep.merge(traceOverhead(ctx, probe, spec.op, spec.budget))
	rep.merge(topkLayer(rounds))
	layers, direct, err := layerProbe(ctx, probe, tr)
	if err != nil {
		return nil, err
	}
	rep.merge(layers)
	sm, err := serveProbe(probe, direct, layers, rep, rand.New(rand.NewSource(cfg.seed)))
	if err != nil {
		return nil, err
	}
	rep.merge(sm)
	return rep, nil
}
