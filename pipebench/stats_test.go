package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestSummarizeSampleCountRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		tail float64
	}{
		{1, 0}, {39, 0}, // below 40 samples: the median alone
		{40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {10000, 99.9},
	} {
		s := summarize(seq(tc.n))
		if s.n != tc.n || s.tail != tc.tail {
			t.Errorf("n=%d: got tail p%g, want p%g", tc.n, s.tail, tc.tail)
		}
		if s.tail > 0 {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > s.tailValue {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%g", tc.n, beyond, s.tail)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := summarize([]float64{3, 1, 2}).median; got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
	if s := summarize(nil); s.n != 0 || s.median != 0 {
		t.Errorf("empty summary %+v", s)
	}
}
