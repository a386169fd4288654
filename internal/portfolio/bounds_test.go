package portfolio

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestBoundsMonotone(t *testing.T) {
	b := NewBounds(nil)
	if _, ok := b.BestKnown(); ok {
		t.Error("empty manager reports an incumbent")
	}
	a := b.ForEngine("a")
	c := b.ForEngine("c")

	a.PublishModel(10, []bool{false, true})
	a.PublishModel(12, nil) // worse: must not replace the incumbent
	c.PublishModel(7, []bool{false, false})
	if ub, ok := b.BestKnown(); !ok || ub != 7 {
		t.Errorf("BestKnown = %d, %v; want 7, true", ub, ok)
	}

	a.PublishLower(1)
	c.PublishLower(5)
	a.PublishLower(3) // lower than the global bound: must be ignored
	if lb := b.ProvenLower(); lb != 5 {
		t.Errorf("ProvenLower = %d, want 5", lb)
	}

	tr := b.Traffic()
	if tr.ModelsPublished != 3 || tr.ModelsImproved != 2 {
		t.Errorf("model traffic %d/%d, want 3/2", tr.ModelsPublished, tr.ModelsImproved)
	}
	if tr.LowerBoundsPublished != 3 || tr.LowerBoundsImproved != 2 {
		t.Errorf("lower-bound traffic %d/%d, want 3/2", tr.LowerBoundsPublished, tr.LowerBoundsImproved)
	}
	if b.Closed() || tr.RaceClosedByBounds {
		t.Error("bounds closed although lb 5 < ub 7")
	}
}

func TestBoundsMeetFiresOnClose(t *testing.T) {
	var fired int32
	b := NewBounds(func() { atomic.AddInt32(&fired, 1) })
	p := b.ForEngine("e")

	p.PublishLower(5) // no incumbent yet: cannot close
	if b.Closed() {
		t.Fatal("closed without an upper bound")
	}
	p.PublishModel(5, []bool{})
	if !b.Closed() {
		t.Fatal("lb == ub did not close the race")
	}
	if got := atomic.LoadInt32(&fired); got != 1 {
		t.Fatalf("onClose fired %d times, want 1", got)
	}
	// Further publications keep it closed and never re-fire.
	p.PublishLower(9)
	p.PublishModel(4, []bool{})
	if got := atomic.LoadInt32(&fired); got != 1 {
		t.Fatalf("onClose re-fired: %d", got)
	}
	if !b.Traffic().RaceClosedByBounds {
		t.Error("RaceClosedByBounds not recorded")
	}
}

// TestBoundsConcurrent hammers the manager from many goroutines (run
// under -race in CI): the final incumbent must be the global minimum,
// the final lower bound the global maximum, and the close callback must
// fire exactly once.
func TestBoundsConcurrent(t *testing.T) {
	var fired int32
	b := NewBounds(func() { atomic.AddInt32(&fired, 1) })
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		p := b.ForEngine(string(rune('a' + g)))
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Costs descend toward 100, lower bounds ascend toward 100,
				// so the bounds meet mid-run.
				p.PublishModel(int64(100+((g*perG+i)%400)), nil)
				p.PublishLower(int64(100 - ((g*perG + i) % 100)))
				p.BestKnown()
				p.ProvenLower()
			}
			p.PublishLower(100)
		}(g)
	}
	wg.Wait()
	if ub, ok := b.BestKnown(); !ok || ub != 100 {
		t.Errorf("final incumbent %d, want 100", ub)
	}
	if lb := b.ProvenLower(); lb != 100 {
		t.Errorf("final lower bound %d, want 100", lb)
	}
	if !b.Closed() {
		t.Error("bounds met but race not closed")
	}
	if got := atomic.LoadInt32(&fired); got != 1 {
		t.Errorf("onClose fired %d times, want exactly 1", got)
	}
}
