// Package serve is the exactlyonce golden: a send that is neither
// provably buffered nor guarded by ctx.Done()/default leaves its sender
// stuck forever, holding its analysis slot, once the consumer gives up.
package serve

import "context"

type result struct {
	node string
	val  float64
}

// nakedSend is the true positive: the channel arrives as a parameter,
// so its capacity is unknowable here, and nothing guards the send.
func nakedSend(out chan result, r result) {
	out <- r // want "naked send"
}

// perTaskBuffer is the negative for the one-slot idiom: the task owns a
// make(chan T, 1), so the send completes whether or not anyone reads.
func perTaskBuffer(r result) <-chan result {
	ch := make(chan result, 1)
	go func() {
		ch <- r
	}()
	return ch
}

// fanInBuffer is the negative for the sized fan-in: one slot per
// producer, so every send completes.
func fanInBuffer(items []string) []result {
	results := make(chan result, len(items))
	for _, it := range items {
		go func(name string) {
			results <- result{node: name}
		}(it)
	}
	out := make([]result, 0, len(items))
	for range items {
		out = append(out, <-results)
	}
	return out
}

// cancellableSend is the negative for the guarded-select idiom: the
// consumer's abandonment (ctx cancelled) releases the sender.
func cancellableSend(ctx context.Context, out chan result, r result) {
	select {
	case out <- r:
	case <-ctx.Done():
	}
}

// optimisticSend is the negative for select-with-default: the send
// never parks.
func optimisticSend(out chan result, r result) bool {
	select {
	case out <- r:
		return true
	default:
		return false
	}
}

// sendInCaseBody is a positive even though a select is nearby: the send
// is in a case BODY, not a comm clause, so the guard does not cover it.
func sendInCaseBody(ctx context.Context, out chan result, r result) {
	select {
	case <-ctx.Done():
		out <- r // want "naked send"
	}
}

// suppressed: the caller contract guarantees a consumer, recorded as an
// auditable reason.
func suppressed(out chan result, r result) {
	//lint:ignore exactlyonce golden: the sole caller blocks on this receive before returning
	out <- r
}
