// Package serve is the lockorder golden: ABBA ordering cycles are
// reported (directly and through callee acquire-summaries), blocking
// operations under a held mutex are reported, and the non-blocking
// select-with-default idiom is exempt.
package serve

import "sync"

type registry struct {
	mu    sync.Mutex
	items map[string]int
}

type index struct {
	mu   sync.Mutex
	keys []string
}

var (
	reg registry
	idx index
)

// lockAB and lockBA take the same two locks in opposite orders: both
// nested acquisitions lie on the cycle, so both edges are findings.
func lockAB() {
	reg.mu.Lock()
	idx.mu.Lock() // want "lock-ordering cycle"
	idx.mu.Unlock()
	reg.mu.Unlock()
}

func lockBA() {
	idx.mu.Lock()
	reg.mu.Lock() // want "lock-ordering cycle"
	reg.mu.Unlock()
	idx.mu.Unlock()
}

// lockViaCallee closes a cycle through a callee's acquires-summary:
// holding idx.mu, it calls touchRegistry, which locks reg.mu.
func lockViaCallee() {
	idx.mu.Lock()
	touchRegistry() // want "lock-ordering cycle"
	idx.mu.Unlock()
}

func touchRegistry() {
	reg.mu.Lock()
	reg.items = nil
	reg.mu.Unlock()
}

type worker struct {
	mu      sync.Mutex
	results chan int
	wg      sync.WaitGroup
}

// sendUnderLock parks the goroutine with the lock held when the
// channel is full.
func (w *worker) sendUnderLock(v int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.results <- v // want "channel send while holding serve.worker.mu"
}

// waitUnderLock blocks on peers that may need the same lock.
func (w *worker) waitUnderLock() {
	w.mu.Lock()
	w.wg.Wait() // want `call to Wait may block \(WaitGroup.Wait\) while holding serve.worker.mu`
	w.mu.Unlock()
}

// blockViaCallee: the blocking operation hides behind a call — the
// may-block summary of drain carries it to the locked caller.
func (w *worker) blockViaCallee() {
	w.mu.Lock()
	w.drain() // want "may block"
	w.mu.Unlock()
}

func (w *worker) drain() int {
	return <-w.results
}

// tryPublish is the negative: a send under the lock inside a select
// with default never parks (the obs fan-out idiom).
func (w *worker) tryPublish(v int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	select {
	case w.results <- v:
		return true
	default:
		return false
	}
}

// sendOutsideLock is the negative for ordering: release first, then
// block.
func (w *worker) sendOutsideLock(v int) {
	w.mu.Lock()
	w.results = make(chan int, 1)
	w.mu.Unlock()
	w.results <- v
}

// suppressedReplay mirrors the obs Subscribe replay: provably fits the
// buffer, suppressed with the reason.
func (w *worker) suppressedReplay(evs []int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, ev := range evs {
		//lint:ignore lockorder golden: replay is sized to the buffer, the send cannot block
		w.results <- ev
	}
}
