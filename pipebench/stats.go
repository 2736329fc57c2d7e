package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidates for a timing's reported tail, each
// with the sample count from which ten samples lie beyond it.
var tailPercentiles = []struct {
	p    float64
	minN int
}{{75, 40}, {90, 100}, {95, 200}, {99, 1000}, {99.9, 10000}}

// summary is a timing reported by the sample-count rule: the median, and
// the highest percentile that has at least ten samples beyond it. Below
// forty samples that percentile would be no tail, so only the median is
// given (tail = 0).
type summary struct {
	n         int
	median    float64
	tail      float64 // percentile label, 0 when not reported
	tailValue float64
}

func summarize(xs []float64) summary {
	s := summary{n: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.median = percentile(sorted, 50)
	if len(xs) < 40 {
		return s
	}
	for _, c := range tailPercentiles {
		if len(xs) >= c.minN {
			s.tail = c.p
		}
	}
	s.tailValue = percentile(sorted, s.tail)
	return s
}

// percentile interpolates linearly between the closest ranks of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentile(sorted, 50)
}
