package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRunsAllTasks: every submitted task executes exactly once and
// Close joins them all.
func TestPoolRunsAllTasks(t *testing.T) {
	p := New(4)
	var ran atomic.Int64
	const n = 100
	for i := 0; i < n; i++ {
		if err := p.Submit(context.Background(), func(context.Context) {
			ran.Add(1)
		}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	p.Close()
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d tasks, want %d", got, n)
	}
}

// TestPoolConcurrency: with w workers, w long tasks run at the same
// time — the pool actually parallelises rather than serialising.
func TestPoolConcurrency(t *testing.T) {
	const w = 4
	p := New(w)
	defer p.Close()

	var mu sync.Mutex
	running, peak := 0, 0
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		err := p.Submit(context.Background(), func(context.Context) {
			defer wg.Done()
			mu.Lock()
			running++
			if running > peak {
				peak = running
			}
			mu.Unlock()
			<-release
			mu.Lock()
			running--
			mu.Unlock()
		})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	// Give the workers a moment to all pick up their task.
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		got := peak
		mu.Unlock()
		if got == w || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if peak != w {
		t.Fatalf("peak concurrency %d, want %d", peak, w)
	}
}

// TestSubmitAfterClose: Close flips the pool to rejecting.
func TestSubmitAfterClose(t *testing.T) {
	p := New(1)
	p.Close()
	err := p.Submit(context.Background(), func(context.Context) {})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

// TestSubmitHonoursContextUnderBackpressure: when the queue is full and
// the submitter's context dies, Submit returns the context error
// instead of blocking forever.
func TestSubmitHonoursContextUnderBackpressure(t *testing.T) {
	p := New(1)
	defer p.Close()

	block := make(chan struct{})
	defer close(block)
	// Occupy the single worker, then fill the queue.
	if err := p.Submit(context.Background(), func(context.Context) { <-block }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.Workers(); i++ {
		if err := p.Submit(context.Background(), func(context.Context) {}); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- p.Submit(ctx, func(context.Context) {
			t.Error("rejected task must not run")
		})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Submit = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Submit did not return after cancellation under backpressure")
	}
}

// TestQueuedTaskStillRunsWhenCancelled: the exactly-once contract — a
// task whose context dies while it sits in the queue is still invoked
// (with the dead context), so callers counting completions never hang.
func TestQueuedTaskStillRunsWhenCancelled(t *testing.T) {
	p := New(1)
	block := make(chan struct{})
	if err := p.Submit(context.Background(), func(context.Context) { <-block }); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	var sawCancel atomic.Bool
	if err := p.Submit(ctx, func(taskCtx context.Context) {
		ran.Store(true)
		sawCancel.Store(taskCtx.Err() != nil)
	}); err != nil {
		t.Fatal(err)
	}
	cancel() // dies while queued behind the blocked worker
	close(block)
	p.Close()
	if !ran.Load() {
		t.Fatal("accepted task never ran")
	}
	if !sawCancel.Load() {
		t.Fatal("task did not observe its cancelled context")
	}
}

// TestPoolNoGoroutineLeakUnderCancellation: the -race leak check. A
// pool whose batch is cancelled mid-flight and then closed must leave
// no worker or submitter goroutines behind.
func TestPoolNoGoroutineLeakUnderCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	for round := 0; round < 5; round++ {
		p := New(4)
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Ignore result: either the task runs, is skipped, or
				// Submit aborts with ctx.Err — all fine; what matters is
				// that nothing is left running afterwards.
				_ = p.Submit(ctx, func(taskCtx context.Context) {
					select {
					case <-taskCtx.Done():
					case <-time.After(50 * time.Millisecond):
					}
				})
			}()
		}
		time.Sleep(5 * time.Millisecond)
		cancel()
		wg.Wait()
		p.Close()
	}

	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
