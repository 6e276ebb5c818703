package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a tail percentile for it to
// be reported: with fewer, one slow sample moves it.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of samples (the
// smallest sample with at least p% of all samples at or below it). Failed
// operations enter as +Inf, so they count against every latency limit. A
// percentile above the median is refused when fewer than minBeyond samples
// lie beyond its rank; the median itself is always defined.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", p)
	}
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("percentile p%g outside (0, 100]", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if p > 50 && n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// median is the nearest-rank p50, which percentile never refuses.
func median(samples []float64) float64 {
	v, err := percentile(samples, 50)
	if err != nil {
		return math.NaN()
	}
	return v
}

// maxOf returns the largest sample.
func maxOf(samples []float64) float64 {
	m := math.Inf(-1)
	for _, v := range samples {
		m = math.Max(m, v)
	}
	return m
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
