package differ

// FuzzDifferential drives random fault trees through the full six-step
// pipeline under the differential harness: every portfolio engine, the
// BDD top-k oracle and the exact quantitative layer must agree on every
// generated instance. The fuzzer owns the generator parameters, so it
// explores tree shapes (gate mix, fan-in, sharing, voting thresholds)
// rather than raw bytes. Any reported divergence is a real bug in an
// engine, the encoder, or an oracle.
//
// Random voting-heavy instances can be genuinely hard, and the fuzz
// worker kills inputs that run long, so each input gets a tight budget
// (short per-engine timeout, bounded overall context) and instances
// that merely time out are skipped — only disagreement fails.
//
//	go test -fuzz=FuzzDifferential -fuzztime=30s ./internal/differ

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mpmcs4fta/internal/gen"
	"mpmcs4fta/internal/sat"
)

func FuzzDifferential(f *testing.F) {
	f.Add(int64(1), 8, 4, 40, 0, false)
	f.Add(int64(42), 12, 3, 60, 30, false)
	f.Add(int64(7), 5, 2, 20, 0, true)
	f.Add(int64(1234), 10, 5, 50, 100, false)
	// Deeply modular: no sharing and fan-in 2 make every gate a module.
	f.Add(int64(77), 10, 4, 50, 0, true)
	f.Fuzz(func(t *testing.T, seed int64, events, fanIn, andBias, votingFrac int, noSharing bool) {
		cfg := gen.Config{
			Events:     2 + abs(events)%11, // 2..12 basic events
			MaxFanIn:   2 + abs(fanIn)%4,   // 2..5
			AndBias:    float64(1+abs(andBias)%99) / 100,
			VotingFrac: float64(abs(votingFrac)%101) / 100,
			NoSharing:  noSharing,
			Seed:       seed,
		}
		// Whole-input budget well under the fuzz worker's hang
		// detector; per-engine timeout keeps one stubborn engine from
		// eating the whole budget.
		ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
		defer cancel()
		opts := Options{TopK: 2, Timeout: time.Second}
		rep, err := CheckRandom(ctx, cfg, opts)
		if err != nil {
			if errors.Is(err, sat.ErrInterrupted) || ctx.Err() != nil {
				t.Skipf("config %+v: too hard for fuzz budget: %v", cfg, err)
			}
			t.Fatalf("config %+v: %v", cfg, err)
		}
		if timedOutOnly(rep) {
			t.Skipf("config %+v: engine timeout within fuzz budget", cfg)
		}
		if !rep.OK() {
			minCfg, minRep := Shrink(ctx, cfg, opts)
			t.Fatalf("divergence for config %+v:\n%s\nminimized reproducer %+v:\n%s",
				cfg, rep, minCfg, minRep)
		}
	})
}

// timedOutOnly reports whether every divergence in rep stems from a
// solve hitting its per-engine timeout (the interrupted error shows up
// in the detail, whether from a single engine or the top-k
// enumeration) — a budget artefact under fuzzing, not a disagreement.
func timedOutOnly(rep *Report) bool {
	if rep.OK() {
		return false
	}
	for _, d := range rep.Divergences {
		if !strings.Contains(d.Detail, sat.ErrInterrupted.Error()) {
			return false
		}
	}
	return true
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
