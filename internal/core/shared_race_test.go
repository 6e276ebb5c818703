package core

import (
	"context"
	"sync"
	"testing"

	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/gles"
	"gles2gpgpu/internal/ref"
)

// TestSharedProgramCacheConcurrentEngines hammers one SharedProgramCache
// and one device profile from many goroutines at once, each owning a
// private engine but sharing compiled kernels. Run under -race this pins
// the concurrency contract the serving layer relies on: the per-source
// program cache is safe, and a shared shader.Program is immutable after
// Compile — each engine's linked programs build their own lane forms.
func TestSharedProgramCacheConcurrentEngines(t *testing.T) {
	const (
		goroutines = 8
		iters      = 4
		n          = 16
	)
	prof := device.VideoCoreIV() // single instance shared by every engine
	cache := gles.NewSharedProgramCache()

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := Config{
				Device: prof,
				Width:  n, Height: n,
				Swap:         SwapNone,
				Target:       TargetTexture,
				UseVBO:       true,
				ProgramCache: cache,
			}
			e, err := NewEngine(cfg)
			if err != nil {
				errs <- err
				return
			}
			a, b := randMatrix(n, int64(g)+1), randMatrix(n, int64(g)+100)
			// Alternate two kernels so every goroutine both publishes
			// and consumes cache entries.
			sum, err := NewSum(e, a, b)
			if err != nil {
				errs <- err
				return
			}
			gemm, err := NewSgemm(e, a, b, 16)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < iters; i++ {
				for _, r := range []Runner{sum, gemm} {
					if err := r.RunOnce(context.Background()); err != nil {
						errs <- err
						return
					}
				}
			}
			e.Finish()
			got, err := sum.Result()
			if err != nil {
				errs <- err
				return
			}
			want := make([]float64, n*n)
			ref.Sum(a.Data, b.Data, want)
			if d := ref.MaxAbsDiff(want, got.Data); d > 1e-3 {
				t.Errorf("goroutine %d: sum max error %g", g, d)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	hits, misses := cache.Stats()
	if misses == 0 {
		t.Error("shared cache misses = 0, want > 0 (someone must compile)")
	}
	if hits == 0 {
		t.Error("shared cache hits = 0, want > 0 (kernels must be shared across engines)")
	}
}
