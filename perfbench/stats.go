package main

import (
	"math"
	"sort"

	"podnas/internal/metrics"
)

// tailBeyond is how many samples must lie beyond the reported tail
// percentile, so the tail is never decided by one or two outliers.
const tailBeyond = 10

// tailPercentile returns the highest whole percentile q in [50, 99] whose
// nearest-rank value leaves at least tailBeyond of n samples beyond it. A
// workload fixes it from its planned sample count, so every run reports the
// same percentile however many extra rounds fit into its time budget. With
// too few samples for any tail it returns the median (50).
func tailPercentile(n int) int {
	for q := 99; q > 50; q-- {
		if n-nearestRank(q, n) >= tailBeyond {
			return q
		}
	}
	return 50
}

// nearestRank is the 1-based rank of the q-th percentile among n sorted
// samples: ceil(q·n/100), at least 1.
func nearestRank(q, n int) int {
	r := (q*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank q-th percentile of xs (0 when empty).
func percentile(xs []float64, q int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(q, len(s))-1]
}

// median returns the middle sample, averaging the two middle ones for an
// even count (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// utilization is the paper's Table III quantity for one search round: busy
// slot-seconds over slots × wall. The busy spans are the runner-side
// evaluation latencies; UtilizationAUC sums span lengths, so each span is
// anchored at zero.
func utilization(latencies []float64, slots int, wall float64) float64 {
	spans := make([]metrics.Interval, len(latencies))
	for i, d := range latencies {
		spans[i] = metrics.Interval{Hi: d}
	}
	return metrics.UtilizationAUC(spans, slots, wall)
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
