package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"mpmcs4fta/internal/cnf"
	"mpmcs4fta/internal/core"
	"mpmcs4fta/internal/decomp"
	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/portfolio"
)

// engineNames are the members of portfolio.DefaultEngines, in its order;
// BENCHMARK.json declares one metric per engine and per-engine quantity.
var engineNames = []string{"wmsu1", "wmsu1-strat", "linear-su", "wmsu1-pos", "linear-su-rnd", "branch-bound"}

// soloCap bounds one engine's solo solve in the probe; a capped solve
// counts as soloCap.
const soloCap = 250 * time.Millisecond

// layerProbe times the calls into each layer from outside, on the probe
// trees of a workload: parse and hash (internal/ft), Steps 1–4
// (core.BuildSteps), planning (decomp.BuildPlan), one portfolio race on
// the encoded instance, the default and the monolithic analysis, the
// solution's JSON encoding, and every engine alone on every other tree.
// The default analyses run under tr, whose decode, decompose and module
// spans the layer metrics read. It also returns each tree's direct
// default-analysis time in ms.
func layerProbe(ctx context.Context, probe []*item, tr *spanAgg) (map[string]metric, map[*item]float64, error) {
	var (
		parse, hash, encode, vars, hard      []float64
		plan, nodes, race, def, speedup, js  []float64
		conflicts, decisions                 []float64
		useful, spent, props, propMS, closed float64
		slow                                 int
		solos                                []*cnf.WCNF
		soloRace                             []float64
	)
	wins := make(map[string]float64)
	direct := make(map[*item]float64)
	tr.on.Store(true)
	for i, it := range probe {
		start := time.Now()
		tree, err := ft.ReadJSON(bytes.NewReader(it.body))
		if err != nil {
			return nil, nil, fmt.Errorf("probe %s: %w", it.repro, err)
		}
		parse = append(parse, ms(time.Since(start)))

		start = time.Now()
		if _, err := ft.CanonicalHash(tree); err != nil {
			return nil, nil, fmt.Errorf("probe %s: %w", it.repro, err)
		}
		hash = append(hash, ms(time.Since(start)))

		start = time.Now()
		steps, err := core.BuildSteps(tree, core.Options{})
		if err != nil {
			return nil, nil, fmt.Errorf("probe %s: %w", it.repro, err)
		}
		encode = append(encode, ms(time.Since(start)))
		vars = append(vars, float64(steps.Instance.NumVars))
		hard = append(hard, float64(len(steps.Instance.Hard)))

		start = time.Now()
		p, err := decomp.BuildPlan(tree, decomp.Options{})
		if err != nil {
			return nil, nil, fmt.Errorf("probe %s: %w", it.repro, err)
		}
		plan = append(plan, ms(time.Since(start)))
		nodes = append(nodes, float64(len(p.Nodes)))

		raceMS, report := timeRace(ctx, steps.Instance)
		race = append(race, raceMS)
		wins[report.Winner]++
		if report.Coop.RaceClosedByBounds {
			closed++
		}
		for _, e := range report.Engines {
			spent += ms(e.Elapsed)
		}
		if w := report.WinnerReport(); w != nil {
			useful += ms(w.Elapsed)
			conflicts = append(conflicts, float64(w.Stats.Conflicts))
			decisions = append(decisions, float64(w.Stats.Decisions))
			props += float64(w.Stats.Propagations)
			propMS += ms(w.Elapsed)
		}

		start = time.Now()
		sol, err := core.Analyze(ctx, tree, core.Options{Timeout: analyzeTimeout, Tracer: tr})
		if err != nil {
			return nil, nil, fmt.Errorf("probe %s: %w", it.repro, err)
		}
		d := ms(time.Since(start))
		def = append(def, d)
		direct[it] = d

		start = time.Now()
		if _, err := core.Analyze(ctx, tree, core.Options{Timeout: analyzeTimeout, NoDecompose: true, Tracer: tr}); err != nil {
			return nil, nil, fmt.Errorf("probe %s: %w", it.repro, err)
		}
		mono := ms(time.Since(start))
		speedup = append(speedup, ratio(mono, d))
		if d > 2*mono {
			slow++
		}

		start = time.Now()
		if _, err := json.Marshal(sol); err != nil {
			return nil, nil, fmt.Errorf("probe %s: %w", it.repro, err)
		}
		js = append(js, ms(time.Since(start)))

		if i%2 == 0 {
			solos = append(solos, steps.Instance)
			soloRace = append(soloRace, raceMS)
		}
	}

	m := map[string]metric{
		"ft.parse_ms":                     {median(parse), "ms", len(parse)},
		"ft.hash_ms":                      {median(hash), "ms", len(hash)},
		"core.encode_ms":                  {median(encode), "ms", len(encode)},
		"core.encode_share":               {ratio(sum(encode), sum(def)), "ratio", len(encode)},
		"core.vars":                       {median(vars), "count", len(vars)},
		"core.hard_clauses":               {median(hard), "count", len(hard)},
		"decomp.plan_ms":                  {median(plan), "ms", len(plan)},
		"decomp.nodes":                    {median(nodes), "count", len(nodes)},
		"decomp.speedup":                  {median(speedup), "ratio", len(speedup)},
		"decomp.slow_trees":               {float64(slow), "count", len(speedup)},
		"portfolio.race_ms":               {median(race), "ms", len(race)},
		"portfolio.useful_frac":           {ratio(useful, spent), "ratio", len(race)},
		"portfolio.closed_by_bounds_frac": {closed / float64(len(race)), "ratio", len(race)},
		"sat.conflicts":                   {mean(conflicts), "count", len(conflicts)},
		"sat.decisions":                   {mean(decisions), "count", len(decisions)},
		"sat.props_per_ms":                {ratio(props, propMS), "1/ms", len(conflicts)},
		"serve.json_ms":                   {median(js), "ms", len(js)},
	}
	decode, decompose, module := tr.named("decode"), tr.named("decompose"), tr.named("module")
	m["core.decode_ms"] = metric{median(decode), "ms", len(decode)}
	m["decomp.exec_ms"] = metric{median(decompose), "ms", len(decompose)}
	m["decomp.module_ms"] = metric{median(module), "ms", len(module)}
	m["sched.parallelism"] = metric{ratio(sum(module), sum(decompose)), "ratio", len(decompose)}
	for _, name := range engineNames {
		m["portfolio.win_share."+name] = metric{wins[name] / float64(len(race)), "ratio", len(race)}
	}
	for k, v := range soloLayer(ctx, solos, soloRace) {
		m[k] = v
	}
	return m, direct, nil
}

// traceOverhead runs the workload's op on each probe tree twice
// untraced and twice traced, alternating, and reports the median over
// trees of traced ÷ untraced latency. Pairing by tree matters: a tree's
// latency varies far more between trees than tracing moves it.
func traceOverhead(ctx context.Context, probe []*item, o op, budget time.Duration) map[string]metric {
	tr := newSpanAgg()
	tr.on.Store(true)
	var ratios []float64
	for _, it := range probe {
		var plain, traced []float64
		for rep := 0; rep < 2; rep++ {
			plain = append(plain, ms(o(ctx, it, nil, budget).latency))
			traced = append(traced, ms(o(ctx, it, tr, budget).latency))
		}
		ratios = append(ratios, ratio(median(traced), median(plain)))
	}
	return map[string]metric{"trace_overhead": {median(ratios), "ratio", len(ratios)}}
}

// timeRace runs one default portfolio race on an encoded instance.
func timeRace(ctx context.Context, inst *cnf.WCNF) (float64, portfolio.Report) {
	ctx, cancel := context.WithTimeout(ctx, analyzeTimeout)
	defer cancel()
	start := time.Now()
	_, report, _ := portfolio.Solve(ctx, inst, portfolio.DefaultEngines())
	return ms(time.Since(start)), report
}

// soloLayer runs every engine alone (portfolio.SolveSequential with one
// member) on each instance, capped at soloCap, and relates the race on
// the same instance to the fastest solo engine.
func soloLayer(ctx context.Context, insts []*cnf.WCNF, race []float64) map[string]metric {
	solo := make(map[string][]float64)
	calls := make(map[string][]float64)
	capped := make(map[string]float64)
	fastest := make(map[string]float64)
	var overBest []float64
	for i, inst := range insts {
		best, bestName := math.Inf(1), ""
		for _, e := range portfolio.DefaultEngines() {
			sctx, cancel := context.WithTimeout(ctx, soloCap)
			start := time.Now()
			res, _, err := portfolio.SolveSequential(sctx, inst, []portfolio.Engine{e})
			d := ms(time.Since(start))
			cancel()
			if err != nil || !res.Status.Definitive() {
				capped[e.Name]++
				d = ms(soloCap)
			}
			solo[e.Name] = append(solo[e.Name], d)
			calls[e.Name] = append(calls[e.Name], float64(res.Stats.SATCalls))
			if d < best {
				best, bestName = d, e.Name
			}
		}
		fastest[bestName]++
		overBest = append(overBest, ratio(race[i], best))
	}
	n := float64(len(insts))
	m := map[string]metric{"portfolio.race_over_best": {median(overBest), "ratio", len(overBest)}}
	for _, name := range engineNames {
		m["portfolio.fastest_share."+name] = metric{ratio(fastest[name], n), "ratio", len(insts)}
		m["maxsat.solo_ms."+name] = metric{median(solo[name]), "ms", len(solo[name])}
		m["maxsat.sat_calls."+name] = metric{median(calls[name]), "count", len(calls[name])}
		m["maxsat.capped."+name] = metric{capped[name], "count", len(insts)}
	}
	return m
}

// roundStat is one enumeration round: its own elapsed time and the SAT
// calls of the engine that won it.
type roundStat struct{ ms, satCalls float64 }

func roundStats(sols []*core.Solution) []roundStat {
	out := make([]roundStat, len(sols))
	for i, s := range sols {
		out[i] = roundStat{s.ElapsedMS, float64(s.Stats.Solver.SATCalls)}
	}
	return out
}

// topkProbe enumerates the top 5 cut sets of the four smallest probe
// trees, for workloads whose own op is not an enumeration: every traced
// run reports every per-layer metric, and only topk-deep's own ops pass
// through the top-k layer.
func topkProbe(ctx context.Context, probe []*item) [][]roundStat {
	bySize := append([]*item(nil), probe...)
	sort.SliceStable(bySize, func(i, j int) bool { return bySize[i].events < bySize[j].events })
	var out [][]roundStat
	for _, it := range bySize[:min(4, len(bySize))] {
		sols, _, err := core.AnalyzeTopKComplete(ctx, it.tree, 5, core.Options{Timeout: topkTimeout})
		if err == nil {
			out = append(out, roundStats(sols))
		}
	}
	return out
}

// topkLayer reads the enumeration layer out of top-k rankings: the
// rounds' times and SAT calls, and how the last round's time compares
// with the first's.
func topkLayer(rankings [][]roundStat) map[string]metric {
	var round, calls, first, last []float64
	for _, rounds := range rankings {
		if len(rounds) == 0 {
			continue
		}
		for _, r := range rounds {
			round = append(round, r.ms)
			calls = append(calls, r.satCalls)
		}
		first = append(first, rounds[0].ms)
		last = append(last, rounds[len(rounds)-1].ms)
	}
	return map[string]metric{
		"topk.round_ms":            {median(round), "ms", len(round)},
		"topk.round_growth":        {ratio(median(last), median(first)), "ratio", len(first)},
		"topk.sat_calls_per_round": {mean(calls), "count", len(calls)},
	}
}

// serveProbe sends each probe tree to a fresh in-process mpmcsd twice —
// first as submitted (a miss), then renamed (a hit) — one request every
// 50 ms on one connection, for workloads whose own op is not a request:
// every traced run reports every per-layer metric, and only serve-mix's
// own ops pass through the service.
func serveProbe(probe []*item, direct map[*item]float64, layers map[string]metric, rep *report, rng *rand.Rand) (map[string]metric, error) {
	reqs, err := pairRequests(probe, rng)
	if err != nil {
		return nil, err
	}
	svc := startService(nil)
	defer svc.close()
	open := svc.openLoop(reqs, 50*time.Millisecond, 1)
	counters, err := svc.scrape()
	if err != nil {
		return nil, err
	}
	for i := range open {
		rep.recordResponse(&open[i])
	}
	return serveLayer(open, open, counters, direct, layers["ft.parse_ms"].Value, layers["ft.hash_ms"].Value), nil
}
