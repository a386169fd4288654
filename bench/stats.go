package main

import (
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ms converts a duration to fractional milliseconds, keeping every
// digit the clock gives.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; xs is not modified. An empty
// sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// ratio divides, reading 0 when the denominator is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method)
// computes them, so -compare reports the same spread as an external
// check of the same values. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of xs as a share of its median;
// fewer than two values have no measurable spread and read 0.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(median(xs)))
}

// window is the width of the windows serve-mix's latencies and every
// run's peak_rss_mb take their medians over.
const window = time.Second

// resetPeakRSS hands the heap freed by corpus preparation back to the
// kernel, so the resident-set peaks that follow reflect the workload.
func resetPeakRSS() {
	debug.FreeOSMemory()
	restartPeakRSS()
}

// restartPeakRSS restarts the kernel's resident-set high-water mark
// (VmHWM) at the current resident set. It is best effort: where
// /proc/self/clear_refs is unavailable the mark keeps counting.
func restartPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rssSampler records the resident-set peak of every window of a timed
// phase. The median of those peaks is peak_rss_mb: the single highest
// peak depends on where garbage collections happen to fall, the typical
// window's peak much less.
type rssSampler struct {
	stop, done chan struct{}
	peaks      []float64 // written by the sampling goroutine until done closes
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	restartPeakRSS()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(window)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.peaks = append(s.peaks, peakRSSMiB())
				restartPeakRSS()
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the window peaks; a phase
// shorter than one window yields the peak so far.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	if len(s.peaks) == 0 {
		return []float64{peakRSSMiB()}
	}
	return s.peaks
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM)
// from /proc; it returns 0 where /proc is unavailable.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kib, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kib / 1024
		}
	}
	return 0
}

// calibSink keeps the calibration loop's result alive.
var calibSink uint64

// calibrate times a fixed pure-CPU loop three times and returns the
// median in milliseconds. It involves no program code, so a shift in it
// between runs is machine drift, not a regression.
func calibrate() []float64 {
	out := make([]float64, 0, 3)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 30_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		out = append(out, ms(time.Since(start)))
	}
	return out
}
