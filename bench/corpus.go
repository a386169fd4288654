package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"

	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/gen"
)

// The corpora are pinned: corpus.json lists, per workload, the generator
// call of every tree and its reference answer, chosen once by -pin (see
// pin.go). Running the benchmark executes no screening and computes no
// reference, so the trees a run measures and the answers it holds them to
// do not depend on the code being measured. A run seed only orders the
// ops and shapes serve-mix's requests.
//
//go:embed corpus.json
var corpusJSON []byte

// pin is one pinned tree: a generator call and the reference answer.
type pin struct {
	// Gen is "random", "modular", or the name of a literature tree of
	// internal/gen ("FPS", ...).
	Gen       string  `json:"gen"`
	Events    int     `json:"events,omitempty"`    // random
	Modules   int     `json:"modules,omitempty"`   // modular
	PerModule int     `json:"perModule,omitempty"` // modular
	Voting    float64 `json:"voting,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	// Ref holds the reference probabilities: the MPMCS's, or the top-k
	// ranking's, rank by rank.
	Ref []float64 `json:"ref"`
}

// pinnedSet is one workload's pinned trees.
type pinnedSet struct {
	// Digest is the SHA-256 of every document of the set, in the order
	// setup, trees, misses. A generator that no longer yields the pinned
	// trees fails the run instead of silently measuring other inputs.
	Digest string `json:"digest"`
	Setup  []pin  `json:"setup"`
	Trees  []pin  `json:"trees"`
	Misses []pin  `json:"misses,omitempty"` // serve-mix's never-seen trees
}

// corpus is a workload's built trees.
type corpus struct {
	setup, trees, misses []*item
}

// item is one corpus entry: the tree document the program under test
// reads, the generator call that reproduces it, and the reference answer
// the oracle holds every op's answer to.
type item struct {
	repro  string   // generator call; printed with every failed op
	doc    treeDoc  // the document, before encoding
	body   []byte   // tree JSON, as mpmcs4fta reads it from a file
	tree   *ft.Tree // generated copy, used only by the oracle and the layer probes
	events int
	ref    []float64
}

// loadCorpus builds a workload's pinned trees and checks them against
// the pinned digest. small builds only the first three of each list, for
// the smoke test, and then cannot check the digest.
func loadCorpus(workload string, small bool) (*corpus, error) {
	var all map[string]pinnedSet
	if err := json.Unmarshal(corpusJSON, &all); err != nil {
		return nil, fmt.Errorf("corpus.json: %w", err)
	}
	set, ok := all[workload]
	if !ok {
		return nil, fmt.Errorf("corpus.json has no %s corpus", workload)
	}
	var c corpus
	h := sha256.New()
	for _, l := range []struct {
		pins []pin
		dst  *[]*item
	}{{set.Setup, &c.setup}, {set.Trees, &c.trees}, {set.Misses, &c.misses}} {
		pins := l.pins
		if small {
			pins = pins[:min(3, len(pins))]
		}
		for _, p := range pins {
			it, err := p.build()
			if err != nil {
				return nil, err
			}
			h.Write(it.body)
			*l.dst = append(*l.dst, it)
		}
	}
	if sum := hex.EncodeToString(h.Sum(nil)); !small && sum != set.Digest {
		return nil, fmt.Errorf("%s corpus digest %s, pinned %s: the generator no longer yields the pinned trees; re-pin with -pin", workload, sum, set.Digest)
	}
	return &c, nil
}

// workloadRNG derives a workload's random stream from a seed, so two
// workloads run with one seed draw independently.
func workloadRNG(seed int64, workload string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64()>>1)))
}

// namedTrees are the five literature trees of internal/gen.
var namedTrees = map[string]func() *ft.Tree{
	"FPS":               gen.FPS,
	"PressureTank":      gen.PressureTank,
	"RedundantSCADA":    gen.RedundantSCADA,
	"ReactorProtection": gen.ReactorProtection,
	"RailwayCrossing":   gen.RailwayCrossing,
}

// build generates the pinned tree and its document.
func (p pin) build() (*item, error) {
	var (
		tree  *ft.Tree
		err   error
		repro string
	)
	switch p.Gen {
	case "random":
		tree, err = gen.Random(gen.Config{Events: p.Events, VotingFrac: p.Voting, Seed: p.Seed})
		repro = fmt.Sprintf("gen.Random(gen.Config{Events: %d, VotingFrac: %g, Seed: %d})", p.Events, p.Voting, p.Seed)
	case "modular":
		tree, err = gen.Modular(gen.ModularConfig{Modules: p.Modules, EventsPerModule: p.PerModule, VotingFrac: p.Voting, Seed: p.Seed})
		repro = fmt.Sprintf("gen.Modular(gen.ModularConfig{Modules: %d, EventsPerModule: %d, VotingFrac: %g, Seed: %d})",
			p.Modules, p.PerModule, p.Voting, p.Seed)
	default:
		named, ok := namedTrees[p.Gen]
		if !ok {
			return nil, fmt.Errorf("corpus.json: unknown generator %q", p.Gen)
		}
		tree, repro = named(), "gen."+p.Gen+"()"
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", repro, err)
	}
	doc := document(tree)
	body, err := doc.encode()
	if err != nil {
		return nil, err
	}
	return &item{repro: repro, doc: doc, body: body, tree: tree, events: tree.NumEvents(), ref: p.Ref}, nil
}

// treeDoc is the documented JSON input format of mpmcs4fta and mpmcsd.
// The benchmark writes documents itself, rather than through ft's
// writer, so that a change to the writer does not change the inputs.
type treeDoc struct {
	Name   string     `json:"name,omitempty"`
	Top    string     `json:"top"`
	Events []eventDoc `json:"events"`
	Gates  []gateDoc  `json:"gates"`
}

type eventDoc struct {
	ID          string  `json:"id"`
	Description string  `json:"description,omitempty"`
	Probability float64 `json:"probability"`
}

type gateDoc struct {
	ID          string   `json:"id"`
	Description string   `json:"description,omitempty"`
	Type        string   `json:"type"`
	K           int      `json:"k,omitempty"`
	Inputs      []string `json:"inputs"`
}

// document lists a tree's nodes sorted by id, as ftgen writes them.
func document(tree *ft.Tree) treeDoc {
	d := treeDoc{Name: tree.Name(), Top: tree.Top()}
	for _, e := range tree.Events() {
		d.Events = append(d.Events, eventDoc{ID: e.ID, Description: e.Description, Probability: e.Prob})
	}
	for _, g := range tree.Gates() {
		d.Gates = append(d.Gates, gateDoc{ID: g.ID, Description: g.Description, Type: g.Type.String(), K: g.K, Inputs: g.Inputs})
	}
	sort.Slice(d.Events, func(i, j int) bool { return d.Events[i].ID < d.Events[j].ID })
	sort.Slice(d.Gates, func(i, j int) bool { return d.Gates[i].ID < d.Gates[j].ID })
	return d
}

// encode renders the document as indented JSON, as ftgen writes it.
func (d treeDoc) encode() ([]byte, error) {
	body, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encode tree document: %w", err)
	}
	return append(body, '\n'), nil
}

// renamed returns a document of the same tree with every gate renamed
// and every gate's inputs permuted. ft.CanonicalHash ignores both, so
// mpmcsd must answer it from its cache.
func renamed(d treeDoc, rng *rand.Rand) ([]byte, error) {
	names := make(map[string]string, len(d.Gates))
	for i, j := range rng.Perm(len(d.Gates)) {
		names[d.Gates[i].ID] = "r." + strconv.Itoa(j)
	}
	node := func(id string) string {
		if n, ok := names[id]; ok {
			return n
		}
		return id
	}
	out := treeDoc{Name: d.Name, Top: node(d.Top), Events: d.Events}
	for _, g := range d.Gates {
		inputs := make([]string, len(g.Inputs))
		for i, j := range rng.Perm(len(g.Inputs)) {
			inputs[i] = node(g.Inputs[j])
		}
		g.ID, g.Inputs = node(g.ID), inputs
		out.Gates = append(out.Gates, g)
	}
	return out.encode()
}

// prefixed returns a document of the same tree with every event id
// prefixed. The prefix keeps the events' sorted order, so the program
// builds the identical encoding, but the canonical hash is new: to
// mpmcsd it is a never-seen tree.
func prefixed(d treeDoc, prefix string) ([]byte, error) {
	events := make(map[string]bool, len(d.Events))
	out := treeDoc{Name: d.Name, Top: d.Top}
	for _, e := range d.Events {
		events[e.ID] = true
		e.ID = prefix + e.ID
		out.Events = append(out.Events, e)
	}
	for _, g := range d.Gates {
		inputs := make([]string, len(g.Inputs))
		for i, id := range g.Inputs {
			if events[id] {
				id = prefix + id
			}
			inputs[i] = id
		}
		g.Inputs = inputs
		out.Gates = append(out.Gates, g)
	}
	return out.encode()
}

// spreadPick returns up to n items spread evenly over the corpus ordered
// by size, so layer probes see small and large trees alike.
func spreadPick(items []*item, n int) []*item {
	bySize := append([]*item(nil), items...)
	sort.SliceStable(bySize, func(i, j int) bool { return bySize[i].events < bySize[j].events })
	if len(bySize) <= n {
		return bySize
	}
	out := make([]*item, n)
	for i := range out {
		out[i] = bySize[i*(len(bySize)-1)/(n-1)]
	}
	return out
}
