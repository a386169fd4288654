// Package spans is the spanclose golden: every span obtained from a
// StartSpan call must be ended or handed off on all paths. The local
// tracer/span doubles satisfy the analyzer's structural match (a
// StartSpan method whose result has an End method).
package spans

import "errors"

type span struct{}

func (span) End()         {}
func (span) SetInt(int64) {}

type tracer struct{}

func (tracer) StartSpan(name string) span { return span{} }

func leaks(tr tracer, n int64) {
	sp := tr.StartSpan("work") // want "not ended on all paths \\(exit at line 21\\)"
	sp.SetInt(n)
}

func leaksOnEarlyReturn(tr tracer, fail bool) error {
	sp := tr.StartSpan("work") // want "not ended on all paths \\(exit at line 26\\)"
	if fail {
		return errors.New("failed") // exits without ending sp
	}
	sp.End()
	return nil
}

func deferred(tr tracer) {
	sp := tr.StartSpan("work")
	defer sp.End()
}

func endedOnBothBranches(tr tracer, fail bool) error {
	sp := tr.StartSpan("work")
	if fail {
		sp.End()
		return errors.New("failed")
	}
	sp.End()
	return nil
}

func discarded(tr tracer) {
	tr.StartSpan("work") // want "discarded without End"
}

func discardedBlank(tr tracer) {
	_ = tr.StartSpan("work") // want "discarded without End"
}

func overwritten(tr tracer) {
	sp := tr.StartSpan("first") // want "overwritten before being ended"
	sp = tr.StartSpan("second")
	sp.End()
}

// handedOff transfers the End obligation to the callee, the way the
// portfolio hands engine spans to recordEngineSpan.
func handedOff(tr tracer, own func(span)) {
	sp := tr.StartSpan("work")
	own(sp)
}

func returned(tr tracer) span {
	sp := tr.StartSpan("work")
	return sp
}

func capturedByClosure(tr tracer) func() {
	sp := tr.StartSpan("work")
	return func() { sp.End() }
}

func methodUseIsNotEscape(tr tracer, n int64) {
	sp := tr.StartSpan("work")
	sp.SetInt(n)
	sp.End()
}

func startedInLoop(tr tracer, items []int) {
	for range items {
		sp := tr.StartSpan("item") // want "not ended by the end of the iteration"
		sp.SetInt(1)
	}
}

func endedInLoop(tr tracer, items []int) {
	for range items {
		sp := tr.StartSpan("item")
		sp.End()
	}
}

// annotatedLeak shows the suppression path for a deliberate handoff the
// analyzer cannot see.
func annotatedLeak(tr tracer) {
	//lint:ignore spanclose process exit ends the trace; the span is intentionally left open
	sp := tr.StartSpan("daemon")
	sp.SetInt(1)
}
