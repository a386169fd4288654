// Package gen builds fault-tree workloads: the paper's running example,
// classic literature trees, and seeded random trees with controlled
// shape. The random generator stands in for the authors' unpublished
// benchmark suite (see DESIGN.md, Substitutions): it exercises the same
// code paths with reproducible, parameterised instances.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"mpmcs4fta/internal/ft"
)

// FPS returns the Fire Protection System tree of the paper's Fig. 1,
// with the probabilities of Table I. Its MPMCS is {x1, x2} with joint
// probability 0.02.
func FPS() *ft.Tree {
	t := ft.New("FPS")
	events := []struct {
		id, desc string
		prob     float64
	}{
		{"x1", "Smoke sensor 1 fails", 0.2},
		{"x2", "Smoke sensor 2 fails", 0.1},
		{"x3", "No water supply", 0.001},
		{"x4", "Sprinkler nozzles blocked", 0.002},
		{"x5", "Automatic trigger fails", 0.05},
		{"x6", "Communication channel fails", 0.1},
		{"x7", "DDoS attack on control channel", 0.05},
	}
	for _, e := range events {
		mustAdd(t.AddEventDesc(e.id, e.desc, e.prob))
	}
	mustAdd(t.AddGate("detection", "Fire detection fails", ft.GateAnd, 0, "x1", "x2"))
	mustAdd(t.AddGate("remote", "Remote operation fails", ft.GateOr, 0, "x6", "x7"))
	mustAdd(t.AddGate("trigger", "Triggering system fails", ft.GateAnd, 0, "x5", "remote"))
	mustAdd(t.AddGate("suppression", "Fire suppression fails", ft.GateOr, 0, "x3", "x4", "trigger"))
	mustAdd(t.AddGate("top", "Fire protection system fails", ft.GateOr, 0, "detection", "suppression"))
	t.SetTop("top")
	return t
}

// PressureTank returns a classic pressure-tank rupture fault tree
// (after Vesely et al., Fault Tree Handbook), a standard benchmark with
// shared subsystems.
func PressureTank() *ft.Tree {
	t := ft.New("PressureTank")
	events := []struct {
		id, desc string
		prob     float64
	}{
		{"t1", "Tank rupture (material defect)", 1e-6},
		{"k1", "Relay K1 contacts stuck closed", 3e-5},
		{"k2", "Relay K2 contacts stuck closed", 3e-5},
		{"s1", "Pressure switch S1 stuck closed", 1e-4},
		{"s2", "Push switch S2 stuck closed", 1e-5},
		{"tm", "Timer relay stuck closed", 1e-4},
		{"op", "Operator fails to stop pump", 3e-3},
	}
	for _, e := range events {
		mustAdd(t.AddEventDesc(e.id, e.desc, e.prob))
	}
	// Tank ruptures if defective, or pump runs too long: K2 stuck, or
	// the control circuit keeps power: S1 stuck AND (both emergency
	// paths fail: operator+S2 path and timer+K1 path).
	mustAdd(t.AddGate("emergencyManual", "Manual shutdown fails", ft.GateOr, 0, "op", "s2"))
	mustAdd(t.AddGate("emergencyTimed", "Timed shutdown fails", ft.GateOr, 0, "tm", "k1"))
	mustAdd(t.AddGate("control", "Control circuit holds power", ft.GateAnd, 0, "s1", "emergencyManual", "emergencyTimed"))
	mustAdd(t.AddGate("pumpRuns", "Pump overruns", ft.GateOr, 0, "k2", "control"))
	mustAdd(t.AddGate("top", "Tank ruptures", ft.GateOr, 0, "t1", "pumpRuns"))
	t.SetTop("top")
	return t
}

// RedundantSCADA returns a cyber-physical tree featuring K-of-N voting
// gates (the operator named as future work in the paper): a plant trips
// when 2-of-3 sensor channels fail or the redundant control network and
// its backup both fail.
func RedundantSCADA() *ft.Tree {
	t := ft.New("RedundantSCADA")
	events := []struct {
		id, desc string
		prob     float64
	}{
		{"c1", "Sensor channel 1 fails", 0.01},
		{"c2", "Sensor channel 2 fails", 0.015},
		{"c3", "Sensor channel 3 fails", 0.02},
		{"n1", "Primary network switch fails", 0.005},
		{"n2", "Backup network switch fails", 0.008},
		{"ma", "Malware disables historian", 0.002},
		{"hw", "Controller hardware fault", 0.001},
		{"sw", "Controller firmware bug", 0.003},
	}
	for _, e := range events {
		mustAdd(t.AddEventDesc(e.id, e.desc, e.prob))
	}
	mustAdd(t.AddGate("sensors", "Sensor majority lost", ft.GateVoting, 2, "c1", "c2", "c3"))
	mustAdd(t.AddGate("network", "Control network lost", ft.GateAnd, 0, "n1", "n2"))
	mustAdd(t.AddGate("controller", "Controller fails", ft.GateOr, 0, "hw", "sw"))
	mustAdd(t.AddGate("cyber", "Cyber compromise", ft.GateOr, 0, "ma", "network"))
	mustAdd(t.AddGate("top", "Plant trip", ft.GateOr, 0, "sensors", "cyber", "controller"))
	t.SetTop("top")
	return t
}

// ReactorProtection returns a chemical-reactor overpressure protection
// tree in the HIPPS style: overpressure reaches the vessel when both
// the instrumented shutdown chain and the mechanical relief path fail.
// The shutdown chain uses a 2-of-3 pressure transmitter vote.
func ReactorProtection() *ft.Tree {
	t := ft.New("ReactorProtection")
	events := []struct {
		id, desc string
		prob     float64
	}{
		{"pt1", "Pressure transmitter 1 stuck", 0.02},
		{"pt2", "Pressure transmitter 2 stuck", 0.02},
		{"pt3", "Pressure transmitter 3 stuck", 0.02},
		{"ls", "Logic solver fails", 0.001},
		{"sv1", "Shutdown valve 1 fails to close", 0.01},
		{"sv2", "Shutdown valve 2 fails to close", 0.008},
		{"rv", "Relief valve stuck shut", 0.003},
		{"rd", "Rupture disc blocked", 0.0005},
	}
	for _, e := range events {
		mustAdd(t.AddEventDesc(e.id, e.desc, e.prob))
	}
	mustAdd(t.AddGate("sensing", "Pressure sensing lost", ft.GateVoting, 2, "pt1", "pt2", "pt3"))
	mustAdd(t.AddGate("valves", "Both shutdown valves fail", ft.GateAnd, 0, "sv1", "sv2"))
	mustAdd(t.AddGate("shutdown", "Instrumented shutdown fails", ft.GateOr, 0, "sensing", "ls", "valves"))
	mustAdd(t.AddGate("relief", "Mechanical relief fails", ft.GateAnd, 0, "rv", "rd"))
	mustAdd(t.AddGate("top", "Vessel overpressure", ft.GateAnd, 0, "shutdown", "relief"))
	t.SetTop("top")
	return t
}

// RailwayCrossing returns a level-crossing hazard tree: a train meets a
// road vehicle when the barrier is up while a train approaches — the
// detection path, the barrier path, or the warning path must fail, and
// the driver must also fail to notice.
func RailwayCrossing() *ft.Tree {
	t := ft.New("RailwayCrossing")
	events := []struct {
		id, desc string
		prob     float64
	}{
		{"tc1", "Track circuit 1 fails", 0.004},
		{"tc2", "Track circuit 2 fails", 0.006},
		{"ctl", "Crossing controller fault", 0.002},
		{"bm", "Barrier motor jams", 0.005},
		{"bs", "Barrier arm sheared", 0.001},
		{"wl", "Warning lights fail", 0.008},
		{"wb", "Warning bell fails", 0.012},
		{"dv", "Driver ignores crossing state", 0.05},
	}
	for _, e := range events {
		mustAdd(t.AddEventDesc(e.id, e.desc, e.prob))
	}
	mustAdd(t.AddGate("detection", "Train detection lost", ft.GateAnd, 0, "tc1", "tc2"))
	mustAdd(t.AddGate("barrier", "Barrier stays open", ft.GateOr, 0, "bm", "bs"))
	mustAdd(t.AddGate("warning", "All warnings silent", ft.GateAnd, 0, "wl", "wb"))
	mustAdd(t.AddGate("protection", "Crossing protection fails", ft.GateOr, 0, "detection", "ctl", "barrier", "warning"))
	mustAdd(t.AddGate("top", "Collision hazard", ft.GateAnd, 0, "protection", "dv"))
	t.SetTop("top")
	return t
}

// Ladder returns a tree that shares a gate at every level: g_i =
// OR(g_{i+1}, h_i) and h_i = AND(g_{i+1}, e_i) for i < levels, where
// g_levels is the basic event e_levels and g_0 is the top. The top is
// reached from e_levels along 2^levels paths, so a walk that does not
// visit each shared gate once takes exponential time. The top event
// is equivalent to e_levels alone, the only minimal cut set.
func Ladder(levels int) *ft.Tree {
	t := ft.New(fmt.Sprintf("Ladder%d", levels))
	for i := 0; i <= levels; i++ {
		mustAdd(t.AddEvent(fmt.Sprintf("e%d", i), 0.1))
	}
	below := fmt.Sprintf("e%d", levels)
	for i := levels - 1; i >= 0; i-- {
		h, g := fmt.Sprintf("h%d", i), fmt.Sprintf("g%d", i)
		mustAdd(t.AddAnd(h, below, fmt.Sprintf("e%d", i)))
		mustAdd(t.AddOr(g, below, h))
		below = g
	}
	t.SetTop(below)
	return t
}

func mustAdd(err error) {
	if err != nil {
		panic(fmt.Sprintf("gen: building a named tree failed: %v", err))
	}
}

// Config parameterises the random tree generator.
type Config struct {
	// Events is the number of basic events (leaves); must be ≥ 2.
	Events int
	// MaxFanIn bounds gate inputs (minimum 2, default 4).
	MaxFanIn int
	// AndBias is the probability that an internal gate is an AND gate
	// (default 0.4); the remainder are OR gates except VotingFrac.
	AndBias float64
	// VotingFrac is the fraction of gates that become K-of-N voting
	// gates when they have ≥ 3 inputs (default 0).
	VotingFrac float64
	// MinProb and MaxProb bound event probabilities (defaults 1e-4 and
	// 0.2); probabilities are drawn log-uniformly between them.
	MinProb, MaxProb float64
	// NoSharing forbids shared gates, producing a strictly tree-shaped
	// structure (required by e.g. quant.BottomUpProbability).
	NoSharing bool
	// Seed makes generation reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.MaxFanIn < 2 {
		c.MaxFanIn = 4
	}
	if c.AndBias == 0 {
		c.AndBias = 0.4
	}
	if c.MinProb == 0 {
		c.MinProb = 1e-4
	}
	if c.MaxProb == 0 {
		c.MaxProb = 0.2
	}
	return c
}

// Random generates a random valid fault tree: a gate skeleton built
// top-down until every dangling input is backed by a basic event. The
// same Config always yields the same tree.
func Random(cfg Config) (*ft.Tree, error) {
	cfg = cfg.withDefaults()
	if cfg.Events < 2 {
		return nil, fmt.Errorf("gen: need at least 2 events, got %d", cfg.Events)
	}
	if cfg.MinProb <= 0 || cfg.MaxProb > 1 || cfg.MinProb > cfg.MaxProb {
		return nil, fmt.Errorf("gen: bad probability range [%v, %v]", cfg.MinProb, cfg.MaxProb)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := ft.New(fmt.Sprintf("random-%d-%d", cfg.Events, cfg.Seed))

	// Create the basic events with log-uniform probabilities.
	eventIDs := make([]string, cfg.Events)
	for i := range eventIDs {
		id := "e" + strconv.Itoa(i+1)
		eventIDs[i] = id
		prob := logUniform(rng, cfg.MinProb, cfg.MaxProb)
		if err := t.AddEvent(id, prob); err != nil {
			return nil, err
		}
	}

	// Build gates bottom-up: repeatedly group available nodes (events
	// first, then gates) under new gates until one root remains. This
	// yields a tree whose every gate is reachable and acyclic by
	// construction, with occasional sharing.
	available := append([]string(nil), eventIDs...)
	gateSeq := 0
	for len(available) > 1 {
		fanIn := 2 + rng.Intn(cfg.MaxFanIn-1)
		if fanIn > len(available) {
			fanIn = len(available)
		}
		inputs := make([]string, 0, fanIn)
		for i := 0; i < fanIn; i++ {
			pick := rng.Intn(len(available))
			inputs = append(inputs, available[pick])
			available[pick] = available[len(available)-1]
			available = available[:len(available)-1]
		}
		// Occasionally share an already-consumed node, making a DAG.
		if !cfg.NoSharing && gateSeq > 0 && rng.Float64() < 0.15 {
			shared := "g" + strconv.Itoa(1+rng.Intn(gateSeq))
			inputs = append(inputs, shared)
		}
		gateSeq++
		id := "g" + strconv.Itoa(gateSeq)
		var err error
		switch {
		case len(inputs) >= 3 && rng.Float64() < cfg.VotingFrac:
			k := 2 + rng.Intn(len(inputs)-1)
			err = t.AddVoting(id, k, inputs...)
		case rng.Float64() < cfg.AndBias:
			err = t.AddAnd(id, inputs...)
		default:
			err = t.AddOr(id, inputs...)
		}
		if err != nil {
			return nil, err
		}
		available = append(available, id)
	}
	t.SetTop(available[0])
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("gen: generated tree invalid: %w", err)
	}
	return t, nil
}

// logUniform draws from [lo, hi] uniformly in log space, matching the
// wide spread of real-world failure probabilities.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	if lo == hi {
		return lo
	}
	// Draw exponent uniformly: lo * (hi/lo)^u.
	u := rng.Float64()
	return lo * math.Pow(hi/lo, u)
}

// ModularConfig parameterises Modular: a tree with a known number of
// independent Dutuit–Rauzy modules, the ground-truth workload for
// decomposition tests and benchmarks.
type ModularConfig struct {
	// Modules is the number of independent subtrees under the top gate
	// (≥ 2). Each becomes a proper module of the combined tree.
	Modules int
	// EventsPerModule is the number of basic events in each module
	// (≥ 2).
	EventsPerModule int
	// TopAnd selects an AND top gate (all modules must fail) instead of
	// the default OR (any module suffices).
	TopAnd bool
	// MaxFanIn, AndBias, VotingFrac, MinProb and MaxProb shape each
	// module's internal structure exactly as in Config.
	MaxFanIn         int
	AndBias          float64
	VotingFrac       float64
	MinProb, MaxProb float64
	// Seed makes generation reproducible; module i is generated from
	// Seed+i.
	Seed int64
}

// Modular generates a tree of cfg.Modules independent random subtrees
// joined by one top gate. Every subtree's root is a module of the
// combined tree (its events and gates carry a per-module id prefix, so
// nothing is shared across module boundaries), giving decomposition
// tests and benchmarks a known module count to assert against.
func Modular(cfg ModularConfig) (*ft.Tree, error) {
	if cfg.Modules < 2 {
		return nil, fmt.Errorf("gen: need at least 2 modules, got %d", cfg.Modules)
	}
	if cfg.EventsPerModule < 2 {
		return nil, fmt.Errorf("gen: need at least 2 events per module, got %d", cfg.EventsPerModule)
	}
	t := ft.New(fmt.Sprintf("modular-%dx%d-%d", cfg.Modules, cfg.EventsPerModule, cfg.Seed))
	roots := make([]string, 0, cfg.Modules)
	for i := 0; i < cfg.Modules; i++ {
		sub, err := Random(Config{
			Events:     cfg.EventsPerModule,
			MaxFanIn:   cfg.MaxFanIn,
			AndBias:    cfg.AndBias,
			VotingFrac: cfg.VotingFrac,
			MinProb:    cfg.MinProb,
			MaxProb:    cfg.MaxProb,
			Seed:       cfg.Seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		prefix := "m" + strconv.Itoa(i+1) + "_"
		for _, e := range sub.Events() {
			if err := t.AddEventDesc(prefix+e.ID, e.Description, e.Prob); err != nil {
				return nil, err
			}
		}
		for _, g := range sub.Gates() {
			inputs := make([]string, len(g.Inputs))
			for j, in := range g.Inputs {
				inputs[j] = prefix + in
			}
			if err := t.AddGate(prefix+g.ID, g.Description, g.Type, g.K, inputs...); err != nil {
				return nil, err
			}
		}
		roots = append(roots, prefix+sub.Top())
	}
	var err error
	if cfg.TopAnd {
		err = t.AddAnd("top", roots...)
	} else {
		err = t.AddOr("top", roots...)
	}
	if err != nil {
		return nil, err
	}
	t.SetTop("top")
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("gen: generated modular tree invalid: %w", err)
	}
	return t, nil
}
