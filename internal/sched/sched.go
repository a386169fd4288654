// Package sched provides the fixed worker pool underneath the
// analysis service (internal/serve): submitted tasks run concurrently
// on a bounded set of workers, so throughput is bounded by the pool
// size, never by how many requests arrive.
//
// The pool is deliberately small in concept: Submit enqueues a task and
// applies backpressure when every worker is busy and the queue is full;
// Close drains in-flight work and joins the workers, so no goroutine
// outlives the pool. Cancellation is cooperative — a task receives the
// context it was submitted under and is expected to honour it; Submit
// itself aborts (instead of blocking forever) when that context dies
// while the queue is full.
package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("sched: pool is closed")

// task pairs a unit of work with the context it was submitted under.
type task struct {
	ctx context.Context
	run func(context.Context)
}

// Pool is a fixed-size worker pool. Construct with New; the zero value
// is not usable.
type Pool struct {
	tasks chan task
	wg    sync.WaitGroup // joins the workers

	mu     sync.Mutex
	closed bool // guarded by mu
}

// New returns a running pool with the given number of workers; values
// below 1 select GOMAXPROCS. The queue holds one pending task per
// worker beyond the ones executing, so submitters feel backpressure
// rather than buffering unboundedly.
func New(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{tasks: make(chan task, workers)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return cap(p.tasks) }

func (p *Pool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		t.run(t.ctx)
	}
}

// Submit backoff bounds: the first retry comes quickly so a transient
// full queue costs almost nothing, then the wait doubles up to a cap
// that keeps sustained backpressure cheap (a handful of wakeups per
// millisecond-scale task) without adding meaningful submit latency.
const (
	submitBackoffMin = 50 * time.Microsecond
	submitBackoffMax = 5 * time.Millisecond
)

// Submit enqueues run to execute on a worker with ctx. It blocks while
// the queue is full and returns ctx's error if the context dies first —
// a cancelled batch stops submitting instead of wedging. Once Submit
// returns nil, run is invoked exactly once, even if ctx has since been
// cancelled — the task observes cancellation through its context, and
// callers can rely on one completion per accepted task for their own
// accounting. Returns ErrClosed after Close.
//
// Under sustained backpressure (queue full, every worker busy) Submit
// waits with capped exponential backoff on one reusable timer, so the
// hot submit path allocates a single timer per call instead of one per
// retry.
func (p *Pool) Submit(ctx context.Context, run func(context.Context)) error {
	t := task{ctx: ctx, run: run}
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for wait := submitBackoffMin; ; {
		sent, err := p.tryReserve(t)
		if err != nil || sent {
			return err
		}
		// Queue full: back off outside the lock, watching the context.
		if timer == nil {
			timer = time.NewTimer(wait)
		} else {
			timer.Reset(wait)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
		}
		if wait < submitBackoffMax {
			wait *= 2
			if wait > submitBackoffMax {
				wait = submitBackoffMax
			}
		}
	}
}

// tryReserve makes one locked attempt to enqueue t: the send happens
// under the same mutex that guards Close's channel close, so a
// reserved send can never race a close(p.tasks). Returns (false, nil)
// when the queue is full.
func (p *Pool) tryReserve(t task) (sent bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false, ErrClosed
	}
	select {
	case p.tasks <- t:
		return true, nil
	default:
		return false, nil
	}
}

// Close stops accepting tasks, waits for queued and in-flight tasks to
// finish, and joins the workers. Safe to call more than once;
// concurrent Submits return ErrClosed. Queued tasks whose context has
// been cancelled still run (and are expected to return promptly), so
// Close after a cancellation does not strand anyone waiting on a
// task's completion.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
