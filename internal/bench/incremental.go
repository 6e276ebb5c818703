package bench

import (
	"context"
	"fmt"

	"gles2gpgpu/internal/core"
	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/gles"
	"gles2gpgpu/internal/kernels"
	"gles2gpgpu/internal/timing"
)

// The paper's §V-A methodology: "Due to the large exploration space, we
// follow an incremental approach, starting from one configuration and
// applying the next optimisation on the best performing one, in the order
// they are presented." This file implements that protocol literally:
// beginning from a naive port, each §II optimisation is applied in
// presentation order and *kept only if it helps* — producing the
// optimisation journey that ends at the paper's >16× configuration.

// IncrementalStep is one attempted optimisation.
type IncrementalStep struct {
	Name string
	// Time is the per-iteration time with the optimisation applied on
	// top of the best configuration so far.
	Time timing.Time
	// Speedup is relative to the best configuration before this step.
	Speedup float64
	// Kept reports whether the optimisation improved performance and was
	// retained.
	Kept bool
}

// IncrementalResult is the full journey for one device and workload.
type IncrementalResult struct {
	Device   string
	Workload string
	Naive    timing.Time
	Steps    []IncrementalStep
	Final    timing.Time
	// TotalSpeedup = Naive/Final.
	TotalSpeedup float64
}

// naiveConfig is a straightforward functional port with none of the
// paper's optimisations: client-side vertex arrays, per-iteration texture
// allocation, framebuffer rendering with CopyTexImage2D, no target
// invalidation, presentation at the default swap interval, fp32 kernels.
func naiveConfig(dev *device.Profile) core.Config {
	f := false
	return core.Config{
		Device:           dev,
		Swap:             core.SwapVsync,
		Target:           core.TargetFramebuffer,
		UseVBO:           false,
		StreamInputs:     true,
		InvalidateTarget: &f,
	}
}

// incrementalSteps lists the optimisations in the order the paper's
// evaluation presents them (windowing first — Fig. 3 — so the vsync
// ceiling cannot mask the later, smaller effects; then kernel code, vertex
// processing, rendering target, invalidation, and texture reuse).
func incrementalSteps() []struct {
	name string
	mut  func(*core.Config)
} {
	tvalue := true
	return []struct {
		name string
		mut  func(*core.Config)
	}{
		{"eglSwapInterval(0)", func(c *core.Config) {
			if c.Swap == core.SwapVsync {
				c.Swap = core.SwapNoVsync
			}
		}},
		{"no eglSwapBuffers", func(c *core.Config) {
			c.Swap = core.SwapNone
		}},
		{"fp24 + mul24 kernel", func(c *core.Config) {
			c.Kernel = kernels.FP24Options
		}},
		{"VBO (STATIC_DRAW)", func(c *core.Config) {
			c.UseVBO = true
			c.VBOUsage = gles.STATIC_DRAW
		}},
		{"texture rendering (FBO)", func(c *core.Config) {
			c.Target = core.TargetTexture
			c.ReuseOutputTextures = false // no copies in texture mode
		}},
		{"invalidate target (glClear)", func(c *core.Config) {
			c.InvalidateTarget = &tvalue
		}},
		{"texture reuse (TexSubImage2D / CopyTexSubImage2D)", func(c *core.Config) {
			c.ReuseInputTextures = true
			if c.Target == core.TargetFramebuffer {
				c.ReuseOutputTextures = true
			}
		}},
	}
}

// Incremental runs the journey for one device and workload.
func Incremental(ctx context.Context, dev *device.Profile, spec Spec, o Opts) (*IncrementalResult, error) {
	res := &IncrementalResult{Device: shortName(dev), Workload: spec.Workload.String()}
	memo := calibrations{}

	best := naiveConfig(dev)
	r, err := measure(ctx, memo, best, spec, o)
	if err != nil {
		return nil, fmt.Errorf("incremental naive: %w", err)
	}
	bestTime := r.PerIteration
	res.Naive = bestTime

	for _, step := range incrementalSteps() {
		cfg := best
		step.mut(&cfg)
		r, err := measure(ctx, memo, cfg, spec, o)
		if err != nil {
			return nil, fmt.Errorf("incremental step %q: %w", step.name, err)
		}
		s := IncrementalStep{
			Name:    step.name,
			Time:    r.PerIteration,
			Speedup: float64(bestTime) / float64(r.PerIteration),
		}
		if r.PerIteration < bestTime {
			s.Kept = true
			best = cfg
			bestTime = r.PerIteration
		}
		res.Steps = append(res.Steps, s)
	}
	res.Final = bestTime
	res.TotalSpeedup = float64(res.Naive) / float64(res.Final)
	return res, nil
}

// Table renders the journey.
func (r *IncrementalResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Incremental optimisation journey: %s %s (paper §V-A protocol)",
			r.Device, r.Workload),
		Note:    fmt.Sprintf("naive port: %s; final: %s; total speedup %.1fx", fmtMs(r.Naive), fmtMs(r.Final), r.TotalSpeedup),
		Columns: []string{"optimisation", "per-iteration", "speedup", "kept"},
	}
	for _, s := range r.Steps {
		kept := "kept"
		if !s.Kept {
			kept = "rejected"
		}
		t.AddRow(s.Name, fmtMs(s.Time), fmtSpeedup(s.Speedup), kept)
	}
	return t
}
