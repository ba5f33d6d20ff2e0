package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs, which
// must be sorted ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	// The product is rounded before the ceiling: 0.9 × 100 is a hair above 90.
	i := int(math.Ceil(math.Round(p*float64(len(sorted))*1e6)/1e6)) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// tailPerMille are the percentiles a timing may be reported at.
var tailPerMille = []int{500, 900, 990, 999}

// highestPercentile picks the highest of tailPerMille that still has at
// least ten of n samples beyond it (0 when not even the median does): past
// that point a percentile is decided by a handful of samples.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, pm := range tailPerMille {
		if n*(1000-pm) >= 10*1000 {
			best = float64(pm) / 1000
		}
	}
	return best
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// benchmark driver computes spreads with. xs needs at least two values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	cut := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median of a non-empty slice.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}
