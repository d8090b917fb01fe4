package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// reemitPasses is how many times an iteration serves its completed
// results again; reemit_ms is the median pass.
const reemitPasses = 5

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail resting on fewer samples is one outlier's noise.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, in per
// mille, highest first.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// rank returns the 1-based nearest-rank position of the permille-th
// percentile among n sorted samples.
func rank(permille, n int) int {
	k := (permille*n + 999) / 1000
	if k < 1 {
		k = 1
	}
	return k
}

// tailPermille returns the highest ladder percentile (in per mille) that
// leaves at least minBeyond of n samples above its rank, or false when
// even the median does not.
func tailPermille(n int) (int, bool) {
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// latency summarises one operation kind's latencies within an iteration.
type latency struct {
	N      int     `json:"n"`
	P50ms  float64 `json:"p50_ms"`
	Tailms float64 `json:"tail_ms"`
	// TailPct is the percentile Tailms reports; 0 when there are too few
	// samples for any tail.
	TailPct float64 `json:"tail_pct"`
}

// summarise computes the median and the tail of a latency sample.
func summarise(ds []time.Duration) latency {
	if len(ds) == 0 {
		return latency{}
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	l := latency{N: len(s), P50ms: ms(medianDur(s))}
	if p, ok := tailPermille(len(s)); ok {
		l.TailPct = float64(p) / 10
		l.Tailms = ms(s[rank(p, len(s))-1])
	}
	return l
}

// String renders the summary with its percentile and sample count.
func (l latency) String() string {
	if l.TailPct == 0 {
		return fmt.Sprintf("p50 %.3f ms (n=%d, too few samples for a tail)", l.P50ms, l.N)
	}
	return fmt.Sprintf("p50 %.3f ms, p%g %.3f ms (n=%d)", l.P50ms, l.TailPct, l.Tailms, l.N)
}

// medianDur returns the median of sorted durations.
func medianDur(s []time.Duration) time.Duration {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timePasses runs pass reemitPasses times and returns the median time
// of a pass.
func timePasses(pass func(p int)) time.Duration {
	ds := make([]time.Duration, reemitPasses)
	for p := range ds {
		t := time.Now()
		pass(p)
		ds[p] = time.Since(t)
	}
	return medianOf(ds)
}

// medianOf returns the median of unsorted durations.
func medianOf(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return medianDur(s)
}

// median returns the median of xs (which it does not modify).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
