package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 90, 90},
		{100, 50, 50},
		{101, 50, 51},
		{3, 50, 2},
		{1, 50, 1},
		{200, 90, 180},
		{1000, 99, 990},
	} {
		got, err := percentile(seq(c.n), c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..%d = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// p90 of 99 samples is rank 90 with 9 beyond it: refused.
	if v, err := percentile(seq(99), 90); err == nil {
		t.Errorf("p90 of 99 samples = %v, want refusal", v)
	}
	// With 100 samples exactly 10 lie beyond it.
	if _, err := percentile(seq(100), 90); err != nil {
		t.Errorf("p90 of 100 samples refused: %v", err)
	}
	// p99 needs 1000 samples.
	if _, err := percentile(seq(999), 99); err == nil {
		t.Error("p99 of 999 samples not refused")
	}
	// The median never is.
	if _, err := percentile(seq(2), 50); err != nil {
		t.Errorf("median of 2 samples refused: %v", err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("median of no samples not refused")
	}
}

func TestPercentileCountsFailuresAsInf(t *testing.T) {
	xs := seq(100)
	for i := 0; i < 10; i++ {
		xs[i] = math.Inf(1) // ten failed ops
	}
	if got, _ := percentile(xs, 90); got != 90 {
		t.Errorf("p90 with 10 failures = %v, want 90", got)
	}
	xs[10] = math.Inf(1) // the eleventh reaches the p90 rank
	if got, _ := percentile(xs, 90); !math.IsInf(got, 1) {
		t.Errorf("p90 with 11 failures = %v, want +Inf", got)
	}
	if got := median(xs); got != 50 {
		t.Errorf("median = %v, want 50", got)
	}
}
