// Package mpmcs4fta computes Maximum Probability Minimal Cut Sets
// (MPMCSs) of fault trees with MaxSAT, reproducing Barrère & Hankin,
// "Fault Tree Analysis: Identifying Maximum Probability Minimal Cut
// Sets with MaxSAT" (DSN 2020).
//
// A fault tree combines basic failure events through AND, OR and K-of-N
// voting gates up to a top event. A minimal cut set (MCS) is a minimal
// set of basic events that together trigger the top event; the MPMCS is
// the MCS with the highest joint probability — the most likely way the
// system fails. The library models the MPMCS problem as Weighted
// Partial MaxSAT (falsified events pay their −log probability) and
// solves it with a portfolio of MaxSAT engines built from scratch on an
// internal CDCL SAT solver; a BDD engine provides an independent
// baseline and the classical quantitative measures.
//
// Quickstart:
//
//	tree := mpmcs4fta.NewTree("demo")
//	tree.AddEvent("pump", 0.01)
//	tree.AddEvent("valve", 0.02)
//	tree.AddAnd("top", "pump", "valve")
//	tree.SetTop("top")
//	sol, err := mpmcs4fta.Analyze(context.Background(), tree, mpmcs4fta.Options{})
//	// sol.CutSetIDs() == ["pump","valve"], sol.Probability == 0.0002
package mpmcs4fta

import (
	"context"
	"io"

	"mpmcs4fta/internal/core"
	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/gen"
	"mpmcs4fta/internal/mcs"
	"mpmcs4fta/internal/obs"
	"mpmcs4fta/internal/quant"
	"mpmcs4fta/internal/sim"
)

// Core model and analysis types, re-exported from the internal
// packages.
type (
	// Tree is a fault tree under construction or analysis.
	Tree = ft.Tree
	// BasicEvent is a leaf failure mode with a probability.
	BasicEvent = ft.BasicEvent
	// Gate is an internal AND/OR/voting node.
	Gate = ft.Gate
	// GateType enumerates gate kinds.
	GateType = ft.GateType
	// DotOptions controls Graphviz export.
	DotOptions = ft.DotOptions

	// Options configures Analyze and AnalyzeTopK.
	Options = core.Options
	// Solution is the analysis result (the MPMCS4FTA JSON document).
	Solution = core.Solution
	// SolutionEvent is one MPMCS member.
	SolutionEvent = core.SolutionEvent
	// EventWeight is a Step-3 probability/−log-weight pair (Table I).
	EventWeight = core.EventWeight
	// Steps exposes the pipeline's intermediate artefacts (Steps 1–4).
	Steps = core.Steps

	// CutSet is a sorted set of basic-event ids.
	CutSet = mcs.CutSet
	// Importance bundles classical importance measures for one event.
	Importance = quant.Importance

	// RandomTreeConfig parameterises the workload generator.
	RandomTreeConfig = gen.Config
	// ModularTreeConfig parameterises the modular workload generator.
	ModularTreeConfig = gen.ModularConfig

	// Analyzer caches the CNF encoding for repeated what-if analyses.
	Analyzer = core.Analyzer
	// Estimate is a Monte-Carlo estimate with its standard error.
	Estimate = sim.Estimate
	// CCFGroup declares a beta-factor common-cause failure group.
	CCFGroup = ft.CCFGroup
	// Interval is a closed probability interval for uncertainty
	// propagation.
	Interval = quant.Interval

	// Tracer receives hierarchical spans for the pipeline's six steps;
	// set Options.Tracer to observe an analysis.
	Tracer = obs.Tracer
	// Span is one traced operation; engines appear as "engine:<name>"
	// children of the solve span.
	Span = obs.Span
	// JSONTracer records spans in memory and serialises them as JSON.
	JSONTracer = obs.JSONTracer
	// SpanRecord is the exported form of a finished span.
	SpanRecord = obs.SpanRecord
	// Metrics is a process-wide named-counter registry; set
	// Options.Metrics to accumulate analysis counters.
	Metrics = obs.Metrics
	// SolverStats aggregates per-engine solver telemetry (SAT calls,
	// conflicts, decisions, propagations, bound trajectory).
	SolverStats = obs.SolverStats
	// BoundStep is one point of an engine's cost-bound trajectory.
	BoundStep = obs.BoundStep
	// BoundTraffic counts the cooperative bound exchanges of a portfolio
	// race (models and lower bounds published/improved, race closure).
	BoundTraffic = obs.BoundTraffic
	// EventBus streams live solver events (bound improvements, engine
	// lifecycle, heartbeats) to concurrent subscribers; set Options.Bus
	// to watch a solve converge in flight.
	EventBus = obs.EventBus
	// Event is the envelope of one live solver event.
	Event = obs.Event
	// ObsServer serves /metrics (Prometheus), /events (SSE) and
	// /debug/pprof over a bus and metrics registry — the endpoint behind
	// the CLIs' --obs-listen flag.
	ObsServer = obs.Server
)

// Gate kinds.
const (
	GateAnd    = ft.GateAnd
	GateOr     = ft.GateOr
	GateVoting = ft.GateVoting
)

// Sentinel errors.
var (
	// ErrNoCutSet reports that the top event cannot occur.
	ErrNoCutSet = core.ErrNoCutSet
	// ErrNoAnswer reports that the deadline expired (or the context was
	// cancelled) before the analysis established any answer at all —
	// distinct from ErrNoCutSet, which is a proof about the tree.
	ErrNoAnswer = core.ErrNoAnswer
)

// CanonicalTreeHash returns the tree's content address ("sha256:…"):
// equal for structurally identical trees regardless of gate naming and
// child order — the mpmcsd solution-cache key (see ft.CanonicalHash).
func CanonicalTreeHash(tree *Tree) (string, error) { return ft.CanonicalHash(tree) }

// NewTree returns an empty fault tree with the given name.
func NewTree(name string) *Tree { return ft.New(name) }

// NewJSONTracer returns an in-memory tracer whose span tree can be
// written as JSON (JSONTracer.WriteJSON) after the analysis.
func NewJSONTracer() *JSONTracer { return obs.NewJSONTracer() }

// NewMetrics returns an empty counter registry for Options.Metrics.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// NewEventBus returns an enabled live-telemetry bus for Options.Bus.
func NewEventBus() *EventBus { return obs.NewEventBus() }

// NewObsServer returns an unstarted telemetry server over the registry
// and bus (either may be nil); start with Start(addr), stop with
// Close.
func NewObsServer(m *Metrics, bus *EventBus) *ObsServer { return obs.NewServer(m, bus) }

// LoadTreeJSON parses and validates a fault tree from its JSON format.
func LoadTreeJSON(r io.Reader) (*Tree, error) { return ft.ReadJSON(r) }

// LoadTreeText parses and validates a fault tree from the compact text
// format (see internal/ft: "event id prob", "gate id and|or|KofN in...").
func LoadTreeText(r io.Reader) (*Tree, error) { return ft.ReadText(r) }

// Analyze computes the tree's MPMCS via the six-step MaxSAT pipeline.
func Analyze(ctx context.Context, tree *Tree, opts Options) (*Solution, error) {
	return core.Analyze(ctx, tree, opts)
}

// AnalyzeTopK returns up to k minimal cut sets ranked by descending
// probability (the first is the MPMCS).
func AnalyzeTopK(ctx context.Context, tree *Tree, k int, opts Options) ([]*Solution, error) {
	return core.AnalyzeTopK(ctx, tree, k, opts)
}

// AnalyzeBDD computes the MPMCS with the BDD engine instead of MaxSAT —
// the comparison baseline from the paper's future work.
func AnalyzeBDD(tree *Tree, opts Options) (*Solution, error) {
	return core.AnalyzeBDD(tree, opts)
}

// AnalyzeTopKBDD returns up to k ranked minimal cut sets computed with
// the BDD engine (exact best-first enumeration over the Rauzy family) —
// the cross-check counterpart of AnalyzeTopK.
func AnalyzeTopKBDD(tree *Tree, k int, opts Options) ([]*Solution, error) {
	return core.AnalyzeTopKBDD(tree, k, opts)
}

// BuildSteps runs Steps 1–4 of the pipeline without solving, exposing
// the success-tree formula, the CNF encoding, the −log weights and the
// MaxSAT instance.
func BuildSteps(tree *Tree, opts Options) (*Steps, error) {
	return core.BuildSteps(tree, opts)
}

// MinimalCutSets enumerates all minimal cut sets (BDD-based; scales far
// beyond the classical MOCUS expansion).
func MinimalCutSets(tree *Tree) ([]CutSet, error) { return mcs.ViaBDD(tree) }

// CountMinimalCutSets counts minimal cut sets without enumerating them.
func CountMinimalCutSets(tree *Tree) (int64, error) { return mcs.CountViaBDD(tree) }

// SinglePointsOfFailure returns the events that alone trigger the top
// event.
func SinglePointsOfFailure(tree *Tree) ([]string, error) { return mcs.SPOFs(tree) }

// MinimalPathSets enumerates the minimal sets of events whose
// functioning guarantees the top event cannot occur — the success-side
// dual of MinimalCutSets.
func MinimalPathSets(tree *Tree) ([]CutSet, error) { return mcs.PathSetsViaBDD(tree) }

// Modules returns the gates whose subtrees are independent modules
// (reachable from the top only through them) — the units a
// divide-and-conquer analysis can treat in isolation.
func Modules(tree *Tree) ([]string, error) { return tree.Modules() }

// BottomUpProbability computes the exact top-event probability of a
// strictly tree-shaped fault tree in linear time, without building a
// BDD. It rejects trees with shared nodes.
func BottomUpProbability(tree *Tree) (float64, error) {
	return quant.BottomUpProbability(tree)
}

// TopEventProbability computes the exact probability of the top event
// (independent basic events).
func TopEventProbability(tree *Tree) (float64, error) {
	return quant.TopEventProbability(tree)
}

// ImportanceMeasures computes Birnbaum, criticality (Fussell-Vesely),
// RAW and RRW for every basic event, sorted by Birnbaum importance.
func ImportanceMeasures(tree *Tree) ([]Importance, error) {
	return quant.Measures(tree)
}

// NewAnalyzer encodes the tree once for repeated what-if analyses
// under changing probabilities (Analyzer.Analyze, Analyzer.SwitchPoint).
func NewAnalyzer(tree *Tree, opts Options) (*Analyzer, error) {
	return core.NewAnalyzer(tree, opts)
}

// AnalyzeAbove enumerates every minimal cut set with probability at
// least minProb, in descending order. A tree with no cut set at all
// returns ErrNoCutSet; an empty result with a nil error means no cut
// set reaches minProb.
func AnalyzeAbove(ctx context.Context, tree *Tree, minProb float64, opts Options) ([]*Solution, error) {
	return core.AnalyzeAbove(ctx, tree, minProb, opts)
}

// ModularProbability computes the exact top-event probability by
// modular decomposition — per-module BDDs instead of one monolithic
// BDD, reaching far larger shared structures.
func ModularProbability(tree *Tree) (float64, error) {
	return quant.ModularProbability(tree)
}

// SimulateTopEvent estimates P(top) by Monte-Carlo sampling — an
// analysis-independent cross-check of the exact engines.
func SimulateTopEvent(tree *Tree, trials int, seed int64) (Estimate, error) {
	return sim.TopEvent(tree, trials, seed)
}

// SimulateDominance estimates P(top) and the fraction of failures in
// which every member of the given cut set had failed (the set's share
// of total risk).
func SimulateDominance(tree *Tree, set []string, trials int, seed int64) (top, dominance Estimate, err error) {
	return sim.Dominance(tree, set, trials, seed)
}

// AnalyzeDisjoint enumerates up to k event-disjoint minimal cut sets in
// descending probability order ("independent failure modes").
func AnalyzeDisjoint(ctx context.Context, tree *Tree, k int, opts Options) ([]*Solution, error) {
	return core.AnalyzeDisjoint(ctx, tree, k, opts)
}

// VerifySolution independently re-checks a Solution document against a
// tree: set minimality, membership, probabilities and log-cost.
func VerifySolution(tree *Tree, sol *Solution) error {
	return core.VerifySolution(tree, sol)
}

// ApplyCCF injects beta-factor common-cause failure events for the
// given groups into a copy of the tree (see ft.CCFGroup).
func ApplyCCF(tree *Tree, groups []CCFGroup) (*Tree, error) {
	return tree.ApplyCCF(groups)
}

// IntervalProbability propagates event-probability intervals to
// guaranteed bounds on P(top).
func IntervalProbability(tree *Tree, intervals map[string]Interval) (Interval, error) {
	return quant.IntervalProbability(tree, intervals)
}

// RandomTree generates a reproducible random fault tree for workloads
// and benchmarks.
func RandomTree(cfg RandomTreeConfig) (*Tree, error) { return gen.Random(cfg) }

// ModularTree generates a tree with a known number of independent
// modules under the top gate — the ground-truth workload for the
// decomposition planner (decomp.BuildPlan, ModularProbability) and the
// modular benchmark workload.
func ModularTree(cfg ModularTreeConfig) (*Tree, error) { return gen.Modular(cfg) }

// ExampleFPS returns the paper's Fig. 1 Fire Protection System tree
// (MPMCS {x1, x2}, probability 0.02).
func ExampleFPS() *Tree { return gen.FPS() }

// ExamplePressureTank returns the classic pressure-tank fault tree.
func ExamplePressureTank() *Tree { return gen.PressureTank() }

// ExampleRedundantSCADA returns a cyber-physical tree with K-of-N
// voting gates.
func ExampleRedundantSCADA() *Tree { return gen.RedundantSCADA() }
