// Command mpmcsd is the long-running MPMCS analysis service: fault
// trees are POSTed as JSON, at most -workers analyses run at once,
// each under its request's deadline, and definitive results are cached
// by the canonical tree hash, so re-submitting an equivalent tree is a
// lookup instead of a solve.
//
// Usage:
//
//	mpmcsd [-listen :8357] [-workers N] [-default-timeout 30s]
//	       [-max-timeout 5m] [-cache-entries 1024] [-sequential]
//	       [-pg]
//
// Endpoints (see internal/serve for the request/response contract):
//
//	POST /v1/analyze           fault tree JSON → MPMCS document
//	POST /v1/topk?k=N          fault tree JSON → ranked cut sets
//	GET  /v1/solutions/{hash}  cache lookup by canonical hash
//	GET  /healthz /metrics /events /debug/pprof/*
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mpmcs4fta/internal/core"
	"mpmcs4fta/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr, nil, nil))
}

// run starts the service and blocks until a termination signal.
// The test hooks: a non-nil ready receives the bound address once
// listening, and a non-nil shutdown replaces the signal wait — run
// exits when it is closed. Returns the process exit code.
func run(args []string, stderr io.Writer, ready chan<- string, shutdown <-chan struct{}) int {
	fs := flag.NewFlagSet("mpmcsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen     = fs.String("listen", ":8357", "address to serve on (host:port; :0 picks a free port)")
		workers    = fs.Int("workers", 0, "concurrent solves at most (0 = GOMAXPROCS)")
		defTimeout = fs.Duration("default-timeout", 30*time.Second, "per-request solve budget when the request names none")
		maxTimeout = fs.Duration("max-timeout", 5*time.Minute, "upper bound on the budget a request may ask for")
		cacheSize  = fs.Int("cache-entries", 1024, "bound on cached solution documents")
		sequential = fs.Bool("sequential", false, "run portfolio engines sequentially (deterministic)")
		pg         = fs.Bool("pg", false, "use the Plaisted-Greenbaum CNF encoding")
	)
	if err := fs.Parse(args); err != nil {
		return serve.ExitUsage
	}

	s := serve.New(serve.Config{
		Workers:        *workers,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		CacheEntries:   *cacheSize,
		Core: core.Options{
			Sequential:        *sequential,
			PlaistedGreenbaum: *pg,
		},
	})
	bound, err := s.Start(*listen)
	if err != nil {
		fmt.Fprintln(stderr, "mpmcsd:", err)
		return serve.ExitError
	}
	fmt.Fprintf(stderr, "mpmcsd: listening on http://%s (analyze: POST /v1/analyze, telemetry: /metrics /events)\n", bound)

	if ready != nil {
		ready <- bound
	}
	if shutdown != nil {
		<-shutdown
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		signal.Stop(sig)
		fmt.Fprintln(stderr, "mpmcsd: shutting down")
	}
	if err := s.Close(); err != nil {
		fmt.Fprintln(stderr, "mpmcsd:", err)
		return serve.ExitError
	}
	return serve.ExitOK
}
