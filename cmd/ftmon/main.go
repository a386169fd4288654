// Command ftmon is a terminal client for the live telemetry endpoint
// the --obs-listen flag of mpmcs4fta, ftbench and ftdiff serves: it
// connects to /events and renders the solver's converging bound
// trajectory — upper bound falling, lower bound rising, the optimality
// gap closing — as it happens, ending with the solve's terminal frame.
//
// Usage:
//
//	ftmon -addr localhost:9090            # follow a live solve
//	ftmon -addr localhost:9090 -once      # CI smoke: validate /metrics,
//	                                      # read one event, exit
//
// In -once mode ftmon scrapes /metrics, validates that the body parses
// as Prometheus text exposition format 0.0.4, reads at least one
// /events SSE frame and exits 0 — the machine-checkable contract the
// CI smoke job relies on.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"mpmcs4fta/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ftmon:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ftmon", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "localhost:9090", "telemetry address (host:port) of a process started with --obs-listen")
		once    = fs.Bool("once", false, "validate /metrics (Prometheus 0.0.4) and read one /events frame, then exit")
		timeout = fs.Duration("timeout", 30*time.Second, "with -once: overall deadline for the two checks")
		quiet   = fs.Bool("quiet", false, "suppress heartbeat and restart lines; show only bounds and lifecycle")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := "http://" + strings.TrimPrefix(strings.TrimPrefix(*addr, "http://"), "https://")

	if *once {
		return runOnce(base, *timeout, stdout)
	}
	return follow(base, *quiet, stdout)
}

// runOnce is the CI smoke mode: both endpoints must answer correctly.
func runOnce(base string, timeout time.Duration, stdout io.Writer) error {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	samples, verr := obs.ValidatePrometheusText(resp.Body)
	resp.Body.Close()
	if verr != nil {
		return fmt.Errorf("/metrics is not valid Prometheus text format: %w", verr)
	}
	fmt.Fprintf(stdout, "/metrics: %d samples, valid Prometheus 0.0.4\n", samples)

	// A plain GET with a read deadline: one frame must arrive (the
	// replay ring guarantees history even after the solve finished).
	streamClient := &http.Client{Timeout: timeout}
	resp, err = streamClient.Get(base + "/events")
	if err != nil {
		return fmt.Errorf("connect /events: %w", err)
	}
	defer resp.Body.Close()
	ev, err := readFrame(bufio.NewReader(resp.Body))
	if err != nil {
		return fmt.Errorf("read /events frame: %w", err)
	}
	fmt.Fprintf(stdout, "/events: frame seq=%d kind=%s at %.1fms\n", ev.Seq, ev.Kind, ev.AtMS)
	return nil
}

// follow streams /events until the server closes the connection,
// rendering each frame as one line.
func follow(base string, quiet bool, stdout io.Writer) error {
	resp, err := http.Get(base + "/events")
	if err != nil {
		return fmt.Errorf("connect /events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/events: %s", resp.Status)
	}
	r := bufio.NewReader(resp.Body)
	for {
		ev, err := readFrame(r)
		if err != nil {
			// The serving process exiting (clean close or connection
			// reset) ends the watch, it is not a monitoring failure.
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil
			}
			return err
		}
		if line := render(ev, quiet); line != "" {
			fmt.Fprintln(stdout, line)
		}
	}
}

// event mirrors obs.Event with the payload left raw, since the typed
// payload is only known after inspecting Kind.
type event struct {
	Seq  uint64          `json:"seq"`
	Kind string          `json:"kind"`
	AtMS float64         `json:"atMillis"`
	Data json.RawMessage `json:"data"`
}

// readFrame reads one SSE frame ("data:" lines up to a blank line),
// skipping comments and keepalives, and decodes its JSON envelope.
func readFrame(r *bufio.Reader) (event, error) {
	var data strings.Builder
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return event{}, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		case line == "" && data.Len() > 0:
			var ev event
			if err := json.Unmarshal([]byte(data.String()), &ev); err != nil {
				return event{}, fmt.Errorf("malformed frame %q: %w", data.String(), err)
			}
			return ev, nil
		}
	}
}

// render formats one event as a terminal line; "" drops it.
func render(ev event, quiet bool) string {
	at := fmt.Sprintf("%8.1fms", ev.AtMS)
	switch ev.Kind {
	case obs.KindBoundImproved:
		var p obs.BoundImproved
		if json.Unmarshal(ev.Data, &p) != nil {
			break
		}
		ub := "∞"
		gap := "∞"
		if p.Upper >= 0 {
			ub = fmt.Sprintf("%d", p.Upper)
			gap = fmt.Sprintf("%d", p.Upper-p.Lower)
		}
		closed := ""
		if p.Closed {
			closed = "  [bounds met: race closed]"
		}
		return fmt.Sprintf("%s  bounds   UB=%s LB=%d gap=%s  (%s)%s", at, ub, p.Lower, gap, p.Engine, closed)
	case obs.KindSolveStarted:
		var p obs.SolveStarted
		if json.Unmarshal(ev.Data, &p) != nil {
			break
		}
		return fmt.Sprintf("%s  solve    %d vars, %d hard, %d soft, %d engines", at, p.Vars, p.HardClauses, p.SoftClauses, p.Engines)
	case obs.KindSolveFinished:
		var p obs.SolveFinished
		if json.Unmarshal(ev.Data, &p) != nil {
			break
		}
		line := fmt.Sprintf("%s  done     %s cost=%d lb=%d in %.1fms", at, p.Status, p.Cost, p.LowerBound, p.ElapsedMS)
		if p.Winner != "" {
			line += " winner=" + p.Winner
		}
		if p.Err != "" {
			line += " err=" + p.Err
		}
		return line
	case obs.KindEngineStarted:
		var p obs.EngineStarted
		if json.Unmarshal(ev.Data, &p) != nil {
			break
		}
		return fmt.Sprintf("%s  engine   %s started", at, p.Engine)
	case obs.KindEngineFinished:
		var p obs.EngineFinished
		if json.Unmarshal(ev.Data, &p) != nil {
			break
		}
		line := fmt.Sprintf("%s  engine   %s finished %s", at, p.Engine, p.Status)
		if p.Err != "" {
			line += " (" + p.Err + ")"
		}
		return line
	case obs.KindRestartFired:
		if quiet {
			return ""
		}
		var p obs.RestartFired
		if json.Unmarshal(ev.Data, &p) != nil {
			break
		}
		return fmt.Sprintf("%s  restart  %s #%d after %d conflicts", at, p.Engine, p.Restarts, p.Conflicts)
	case obs.KindHeartbeat:
		if quiet {
			return ""
		}
		var p obs.Heartbeat
		if json.Unmarshal(ev.Data, &p) != nil {
			break
		}
		return fmt.Sprintf("%s  beat     %s conflicts=%d decisions=%d props=%d trail=%d learntDB=%d arenaKiB=%d gcs=%d",
			at, p.Engine, p.Conflicts, p.Decisions, p.Propagations, p.TrailDepth,
			p.LearntDB, p.ArenaWords*4/1024, p.ClauseGCs)
	}
	return fmt.Sprintf("%s  %s", at, ev.Kind)
}
