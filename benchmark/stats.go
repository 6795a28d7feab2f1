package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between order statistics; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// geomean is the geometric mean of the positive entries of xs (a zero
// or negative timing is a clock artefact, not a sample).
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// summary is the median of a few values with the extremes beside it.
type summary struct{ med, min, max float64 }

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return summary{}
	}
	return summary{med: quantile(s, 0.5), min: s[0], max: s[len(s)-1]}
}

// tailPercentiles are the tail percentiles a run may report, highest
// first, as the label used in metric names and the quantile.
var tailPercentiles = []struct {
	label string
	q     float64
}{{"99.9", 0.999}, {"99", 0.99}, {"95", 0.95}, {"90", 0.90}}

// tailPercentile picks the highest percentile that still has at least
// ten of the n samples beyond it; ok is false when even p90 has fewer.
func tailPercentile(n int) (label string, q float64, ok bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p.q) >= 10-1e-9 {
			return p.label, p.q, true
		}
	}
	return "", 0, false
}
