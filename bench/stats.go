package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of sorted xs by the
// nearest-rank rule, so a reported value is always an observed sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median sorts a copy of xs and returns its middle value (mean of the two
// middle values for an even count); NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// lowQuartile and highQuartile are the figure a run reports from the fixed
// windows (or daemons, or passes) it measured: the quartile on the better
// side, lowQuartile for times and highQuartile for rates. The host this
// runs on loses 15-20 % of its speed for 2-10 s at a time, a third of the
// time on a bad day, and never gains any, so the median window flips between
// the two speeds from run to run while the better quartile stays on the
// undisturbed one as long as a quarter of the windows saw it.
func lowQuartile(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.25)
}

func highQuartile(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.75)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// tailMinBeyond is the number of samples that must lie beyond a reported
// tail percentile for it to count as measured rather than as an outlier.
const tailMinBeyond = 10

// tailPercentile applies the benchmark's tail rule: the workload fixes the
// percentile want (e.g. 0.99); it is reported only when at least
// tailMinBeyond samples lie beyond it, otherwise the highest percentile that
// does have that many beyond it is used instead. It returns the percentile
// actually used and its value; ok is false when even the median cannot be
// backed by tailMinBeyond samples.
func tailPercentile(sorted []float64, want float64) (used, value float64, ok bool) {
	n := len(sorted)
	if n < 2*tailMinBeyond {
		return 0, math.NaN(), false
	}
	i := int(math.Ceil(want*float64(n))) - 1
	if i > n-1-tailMinBeyond {
		i = n - 1 - tailMinBeyond
		want = float64(i+1) / float64(n)
	}
	return want, sorted[i], true
}

// tailOrMax is tailPercentile for runs that may be too short to back any
// percentile (a smoke run): it then reports the largest sample as p100.
func tailOrMax(sorted []float64, want float64) (used, value float64) {
	if used, value, ok := tailPercentile(sorted, want); ok {
		return used, value
	}
	return 1, sorted[len(sorted)-1]
}
