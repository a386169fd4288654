package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"time"

	"mpmcs4fta/internal/core"
)

// -pin draws each workload's candidate trees from fixed seeds, screens
// them with the code at hand, computes their reference answers, and
// writes corpus.json. It is run once, when the benchmark is defined or
// deliberately re-based; benchmark runs only read its output.

// pinSeed seeds every candidate draw of -pin.
const pinSeed = 2020

// pinTries is how often -pin runs a candidate's op; every try must reach
// OPTIMAL within the workload's screening limit.
const pinTries = 3

// namedOrder lists the literature trees in the order they lead
// cli-mixed's lists.
var namedOrder = []string{"FPS", "PressureTank", "RedundantSCADA", "ReactorProtection", "RailwayCrossing"}

// pinPlan says how -pin fills one workload's pinnedSet.
type pinPlan struct {
	name                 string
	named                bool // the literature trees lead setup and trees
	setup, trees, misses int
	// draw returns the candidate for the i-th of n size strata.
	draw      func(rng *rand.Rand, i, n int) pin
	op        op
	limit     time.Duration // screening limit per try
	reference func(*item) error
}

var pinPlans = []pinPlan{
	{name: "cli-mixed", named: true, setup: 11, trees: 192, op: analyzeOp, limit: 500 * time.Millisecond, reference: referenceMPMCS,
		draw: func(rng *rand.Rand, i, n int) pin { return randomPin(rng, stratum(rng, i, n), 50, 1000, true) }},
	{name: "modular", setup: 6, trees: 64, op: analyzeOp, limit: 500 * time.Millisecond, reference: referenceMPMCS,
		draw: func(rng *rand.Rand, i, n int) pin {
			return pin{Gen: "modular", Modules: 6 + int(stratum(rng, i, n)*11), PerModule: 30 + rng.Intn(31), Voting: 0.3, Seed: rng.Int63n(1 << 31)}
		}},
	{name: "topk-deep", setup: 6, trees: 64, op: topkOp, limit: 2 * time.Second, reference: referenceTopK,
		draw: func(rng *rand.Rand, i, n int) pin { return randomPin(rng, stratum(rng, i, n), 30, 80, false) }},
	{name: "serve-mix", setup: 8, trees: hotSet, misses: missPool, op: analyzeOp, limit: 300 * time.Millisecond, reference: referenceMPMCS,
		draw: func(rng *rand.Rand, i, n int) pin { return randomPin(rng, stratum(rng, i, n), 100, 500, false) }},
}

// stratum returns a point of the i-th of n equal strata of [0, 1), so a
// list covers its size range evenly.
func stratum(rng *rand.Rand, i, n int) float64 {
	return (float64(i) + rng.Float64()) / float64(n)
}

// randomPin draws a gen.Random call whose event count comes from f in
// [0, 1) mapped onto [lo, hi], log-uniformly when logScale is set.
func randomPin(rng *rand.Rand, f float64, lo, hi int, logScale bool) pin {
	events := lo + int(f*float64(hi-lo+1))
	if logScale {
		events = int(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), f)))
	}
	return pin{Gen: "random", Events: events, Voting: 0.1, Seed: rng.Int63n(1 << 31)}
}

// runPin pins every workload's corpus to path, logging each rejected
// candidate to log.
func runPin(path string, log io.Writer) error {
	var out bytes.Buffer
	out.WriteString("{\n")
	for w, plan := range pinPlans {
		set, err := plan.pin(log)
		if err != nil {
			return fmt.Errorf("%s: %w", plan.name, err)
		}
		fmt.Fprintf(&out, "  %q: {\n    \"digest\": %q", plan.name, set.Digest)
		for _, l := range []struct {
			key  string
			pins []pin
		}{{"setup", set.Setup}, {"trees", set.Trees}, {"misses", set.Misses}} {
			if len(l.pins) == 0 {
				continue
			}
			fmt.Fprintf(&out, ",\n    %q: [", l.key)
			for i, p := range l.pins {
				line, err := json.Marshal(p)
				if err != nil {
					return err
				}
				sep := ","
				if i == len(l.pins)-1 {
					sep = ""
				}
				fmt.Fprintf(&out, "\n      %s%s", line, sep)
			}
			out.WriteString("\n    ]")
		}
		sep := ","
		if w == len(pinPlans)-1 {
			sep = ""
		}
		fmt.Fprintf(&out, "\n  }%s\n", sep)
	}
	out.WriteString("}\n")
	return os.WriteFile(path, out.Bytes(), 0o644)
}

// pin fills one workload's lists from its own seeded stream.
func (p pinPlan) pin(log io.Writer) (*pinnedSet, error) {
	rng := workloadRNG(pinSeed, p.name)
	h := sha256.New()
	var set pinnedSet
	for _, l := range []struct {
		n   int
		dst *[]pin
	}{{p.setup, &set.Setup}, {p.trees, &set.Trees}, {p.misses, &set.Misses}} {
		if p.named && l.n > 0 {
			for _, name := range namedOrder {
				it, err := p.admit(pin{Gen: name}, false)
				if err != nil {
					return nil, err
				}
				h.Write(it.body)
				*l.dst = append(*l.dst, pin{Gen: name, Ref: it.ref})
			}
		}
		for i := 0; i < l.n; i++ {
			pinned, body, err := p.drawAdmitted(rng, i, l.n, log)
			if err != nil {
				return nil, err
			}
			h.Write(body)
			*l.dst = append(*l.dst, pinned)
		}
	}
	set.Digest = hex.EncodeToString(h.Sum(nil))
	return &set, nil
}

// drawAdmitted draws candidates for stratum i of n until one is
// admitted.
func (p pinPlan) drawAdmitted(rng *rand.Rand, i, n int, log io.Writer) (pin, []byte, error) {
	for attempt := 0; attempt < 20; attempt++ {
		cand := p.draw(rng, i, n)
		it, err := p.admit(cand, true)
		if err != nil {
			fmt.Fprintf(log, "%s: rejected %s\n", p.name, err)
			continue
		}
		cand.Ref = it.ref
		return cand, it.body, nil
	}
	return pin{}, nil, fmt.Errorf("no admissible tree in stratum %d of %d after 20 draws", i, n)
}

// admit builds a candidate, screens it when screen is set, and computes
// its reference answer. Screening asks only for OPTIMAL within the limit
// on every try; whether an answer is right is left to benchmark runs.
func (p pinPlan) admit(cand pin, screen bool) (*item, error) {
	it, err := cand.build()
	if err != nil {
		return nil, err
	}
	for try := 0; screen && try < pinTries; try++ {
		if res := p.op(context.Background(), it, nil, p.limit); res.status != optimal {
			return nil, fmt.Errorf("%s: %s after %v on try %d", it.repro, res.status, res.latency.Round(time.Millisecond), try+1)
		}
	}
	if err := p.reference(it); err != nil {
		return nil, fmt.Errorf("%s: reference: %w", it.repro, err)
	}
	return it, nil
}

// referenceMPMCS computes the oracle's answer independently of the
// default path: the BDD engine for trees of at most 200 events, the
// monolithic sequential solve above. A sequential solve that does not
// finish within a second falls back to the monolithic race.
func referenceMPMCS(it *item) error {
	var (
		sol *core.Solution
		err error
	)
	if it.events <= 200 {
		sol, err = core.AnalyzeBDD(it.tree, core.Options{})
	} else {
		sol, err = core.Analyze(context.Background(), it.tree, core.Options{NoDecompose: true, Sequential: true, Timeout: time.Second})
		if err != nil || sol.Status != optimal {
			sol, err = core.Analyze(context.Background(), it.tree, core.Options{NoDecompose: true, Timeout: 3 * time.Second})
		}
	}
	if err != nil {
		return err
	}
	if sol.Status != optimal {
		return fmt.Errorf("reference is %s", sol.Status)
	}
	it.ref = []float64{sol.Probability}
	return nil
}

// referenceTopK ranks the top-k cut sets by exact BDD enumeration.
func referenceTopK(it *item) error {
	sols, err := core.AnalyzeTopKBDD(it.tree, topK, core.Options{})
	if err != nil {
		return err
	}
	it.ref = it.ref[:0]
	for _, s := range sols {
		it.ref = append(it.ref, s.Probability)
	}
	return nil
}
