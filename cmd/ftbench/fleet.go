package main

// Fleet mode (-fleet): solve a whole batch of fault-tree instances —
// a directory of .json/.txt files, or a stream of file paths on stdin —
// on one shared scheduler worker pool, and report batch throughput.
// Parallelism comes from the batch, not from within one instance: each
// analysis runs with a sequential portfolio and a single-worker
// decomposition budget, so `-fleet-workers` is the whole run's CPU
// budget.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mpmcs4fta/internal/core"
	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/sched"
)

// fleetSchema versions the fleet throughput report.
const fleetSchema = "mpmcs4fta-fleet/v1"

type fleetInstance struct {
	name string
	tree *ft.Tree
}

type fleetResult struct {
	Name        string   `json:"name"`
	Status      string   `json:"status,omitempty"`
	Probability float64  `json:"probability,omitempty"`
	CutSet      []string `json:"cutSet,omitempty"`
	ElapsedMS   float64  `json:"elapsedMillis"`
	Err         string   `json:"err,omitempty"`
}

type fleetDoc struct {
	Schema          string        `json:"schema"`
	Workers         int           `json:"workers"`
	Instances       int           `json:"instances"`
	Solved          int           `json:"solved"`
	Failed          int           `json:"failed"`
	ElapsedMS       float64       `json:"elapsedMillis"`
	InstancesPerSec float64       `json:"instancesPerSec"`
	Results         []fleetResult `json:"results"`
}

// solveFleet runs every instance through core.Analyze on one shared
// sched.Pool and aggregates the batch throughput. Per-instance failures
// (including ErrNoCutSet) are recorded, not fatal: one bad tree must
// not sink the batch.
func solveFleet(ctx context.Context, instances []fleetInstance, workers int, timeout time.Duration) (*fleetDoc, error) {
	pool := sched.New(workers)
	opts := core.Options{
		Sequential: true,
		// One decomposition worker per instance: the fleet pool owns the
		// CPU budget, so an instance must not fan out on its own.
		DecomposeWorkers: 1,
		Timeout:          timeout,
	}
	results := make([]fleetResult, len(instances))
	start := time.Now()
	for i := range instances {
		inst := instances[i]
		slot := &results[i]
		if err := pool.Submit(ctx, func(tctx context.Context) {
			s := time.Now()
			sol, err := core.Analyze(tctx, inst.tree, opts)
			slot.Name = inst.name
			slot.ElapsedMS = float64(time.Since(s).Microseconds()) / 1000
			if err != nil {
				slot.Err = err.Error()
				return
			}
			slot.Status = sol.Status
			slot.Probability = sol.Probability
			slot.CutSet = sol.CutSetIDs()
		}); err != nil {
			pool.Close()
			return nil, fmt.Errorf("fleet: submit %s: %w", inst.name, err)
		}
	}
	pool.Close() // waits for every queued instance
	elapsed := time.Since(start)

	doc := &fleetDoc{
		Schema:    fleetSchema,
		Workers:   pool.Workers(),
		Instances: len(instances),
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		Results:   results,
	}
	for _, r := range results {
		if r.Err == "" {
			doc.Solved++
		} else {
			doc.Failed++
		}
	}
	if elapsed > 0 {
		doc.InstancesPerSec = float64(len(instances)) / elapsed.Seconds()
	}
	return doc, nil
}

// collectFleet resolves the -fleet operand into named instances: a
// directory (every .json/.txt file inside, sorted), a single tree
// file, or "-" for newline-separated file paths streamed on stdin.
func collectFleet(path string, stdin io.Reader) ([]fleetInstance, error) {
	var files []string
	switch {
	case path == "-":
		sc := bufio.NewScanner(stdin)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line != "" {
				files = append(files, line)
			}
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("fleet: read stdin: %w", err)
		}
	default:
		info, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			files = []string{path}
			break
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			ext := filepath.Ext(e.Name())
			if ext == ".json" || ext == ".txt" {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
		sort.Strings(files)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fleet: no instances under %q", path)
	}

	instances := make([]fleetInstance, 0, len(files))
	for _, file := range files {
		tree, err := loadFleetTree(file)
		if err != nil {
			return nil, fmt.Errorf("fleet: %s: %w", file, err)
		}
		instances = append(instances, fleetInstance{name: filepath.Base(file), tree: tree})
	}
	return instances, nil
}

func loadFleetTree(path string) (*ft.Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if filepath.Ext(path) == ".json" {
		return ft.ReadJSON(f)
	}
	return ft.ReadText(f)
}

// runFleetMode executes -fleet: collect, solve, print the summary and
// optionally write the JSON report.
func runFleetMode(path string, workers int, outPath string, timeout time.Duration, stdin io.Reader, stdout io.Writer) error {
	instances, err := collectFleet(path, stdin)
	if err != nil {
		return err
	}
	doc, err := solveFleet(context.Background(), instances, workers, timeout)
	if err != nil {
		return err
	}
	for _, r := range doc.Results {
		line := fmt.Sprintf("fleet %-28s %10.1fms", r.Name, r.ElapsedMS)
		if r.Err != "" {
			line += "  err=" + r.Err
		} else {
			line += fmt.Sprintf("  %s p=%.6g %v", r.Status, r.Probability, r.CutSet)
		}
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "fleet: %d instances, %d solved, %d failed, %d workers, %.1fms total, %.2f instances/sec\n",
		doc.Instances, doc.Solved, doc.Failed, doc.Workers, doc.ElapsedMS, doc.InstancesPerSec)
	if outPath != "" {
		if err := writeFile(outPath, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(doc)
		}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "fleet report written to %s\n", outPath)
	}
	return nil
}
