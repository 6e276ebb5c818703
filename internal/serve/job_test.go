package serve

import (
	"encoding/json"
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

// FuzzJobParams drives job bodies through the router's admission path:
// json.Unmarshal into Params, then Key. No input may panic, Key must be
// deterministic, and a job Key accepts must be one a worker can run: N in
// [1, MaxJobSize] and inline inputs of N² values in [0,1). The seed
// corpus is under testdata/fuzz/FuzzJobParams.
func FuzzJobParams(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var p Params
		if err := json.Unmarshal(body, &p); err != nil {
			return
		}
		key, err := p.Key()
		again, errAgain := p.Key()
		if key != again || (err == nil) != (errAgain == nil) {
			t.Fatalf("Key is not deterministic: %q (%v), then %q (%v)", key, err, again, errAgain)
		}
		if err != nil {
			return
		}
		if p.N < 1 || p.N > MaxJobSize {
			t.Fatalf("accepted n=%d outside [1, %d]", p.N, MaxJobSize)
		}
		for _, in := range [][]float64{p.A, p.B} {
			if in != nil && len(in) != p.N*p.N {
				t.Fatalf("accepted inline input of length %d for n=%d", len(in), p.N)
			}
			for _, v := range in {
				if !(v >= 0 && v < 1) {
					t.Fatalf("accepted inline value %g outside [0,1)", v)
				}
			}
		}
	})
}
