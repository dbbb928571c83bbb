package main

import (
	"math"
	"sort"
	"time"
)

// windows is how many consecutive, equal-count chunks of operations the
// timed phase is cut into.
const windows = 20

// median returns the median of xs (the mean of the middle pair for an
// even count); xs is not modified.
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

// percentile is the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// phase is the timed phase reduced to its throughput (ops/s) and
// latency percentiles (ms).
type phase struct{ rate, p50, p90, p99 float64 }

// summarize reduces the timed phase. The operations, in issue order, are
// cut into consecutive chunks of equal count. A chunk's rate is its count
// over the wall time from the previous chunk's last completion to its
// own, and the throughput is the median chunk rate. With windowed
// latencies each percentile is the median of the chunks' own
// percentiles; otherwise it is taken over all operations. Either way a
// short stall on a shared host moves one chunk, not the figures. lat is
// in ms; ends are completion offsets from the start of the phase.
func summarize(lat []float64, ends []time.Duration, windowed bool) phase {
	n := len(ends)
	k := min(windows, n)
	var rates []float64
	var pcts [3][]float64
	var prev time.Duration
	lo := 0
	for c := 1; c <= k; c++ {
		hi := c * n / k
		if span := ends[hi-1] - prev; span > 0 {
			rates = append(rates, float64(hi-lo)/span.Seconds())
		}
		if windowed {
			chunk := append([]float64(nil), lat[lo:hi]...)
			sort.Float64s(chunk)
			for j, p := range []float64{50, 90, 99} {
				pcts[j] = append(pcts[j], percentile(chunk, p))
			}
		}
		prev, lo = ends[hi-1], hi
	}
	if !windowed {
		all := append([]float64(nil), lat...)
		sort.Float64s(all)
		return phase{median(rates), percentile(all, 50), percentile(all, 90), percentile(all, 99)}
	}
	return phase{median(rates), median(pcts[0]), median(pcts[1]), median(pcts[2])}
}
