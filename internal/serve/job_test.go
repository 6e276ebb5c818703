package serve

import (
	"math"
	"testing"
)

// TestNormalizeRejectsNaN: NaN compares false with every bound, so range
// checks must be written to fail for it. Library callers of Scheduler.Do
// can pass NaN (JSON cannot carry it), and a NaN saxpy alpha would key a
// runner that never equals itself.
func TestNormalizeRejectsNaN(t *testing.T) {
	nan := math.NaN()
	inline := func(bad float64) []float64 {
		in := make([]float64, 4)
		in[3] = bad
		return in
	}
	cases := []struct {
		name string
		p    Params
	}{
		{"a-nan", Params{Kernel: "sum", N: 2, A: inline(nan)}},
		{"b-nan", Params{Kernel: "sum", N: 2, B: inline(nan)}},
		{"pipeline-a-nan", Params{Pipeline: "sobel", N: 2, A: inline(nan)}},
		{"alpha-nan", Params{Kernel: "saxpy", N: 2, Alpha: nan}},
		{"a-one", Params{Kernel: "sum", N: 2, A: inline(1)}},
		{"alpha-negative", Params{Kernel: "saxpy", N: 2, Alpha: -0.5}},
	}
	for _, tc := range cases {
		if _, err := tc.p.normalize(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	ok := Params{Kernel: "saxpy", N: 2, Alpha: 1, A: inline(0.5), B: inline(0)}
	if _, err := ok.normalize(); err != nil {
		t.Errorf("in-range saxpy rejected: %v", err)
	}
}
