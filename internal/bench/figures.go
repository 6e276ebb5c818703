package bench

import (
	"context"
	"errors"
	"fmt"

	"gles2gpgpu/internal/core"
	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/gles"
	"gles2gpgpu/internal/kernels"
	"gles2gpgpu/internal/shader"
	"gles2gpgpu/internal/timing"
)

// Devices returns the two platforms of the paper's evaluation, keyed the
// way the figures label them.
func Devices() []*device.Profile {
	return []*device.Profile{device.PowerVRSGX545(), device.VideoCoreIV()}
}

// shortName maps a profile to the paper's series label.
func shortName(p *device.Profile) string {
	if p.Name == device.VideoCoreIV().Name {
		return "VCore"
	}
	if p.Name == device.PowerVRSGX545().Name {
		return "SGX"
	}
	return p.Name
}

// bestPractices is the paper's baseline configuration: OpenGL ES 2
// best-practices GPGPU — VBOs, direct texture rendering (the
// vendor-recommended target), presentation through eglSwapBuffers at the
// default swap interval, 32-bit kernels.
func bestPractices(dev *device.Profile) core.Config {
	return core.Config{
		Device:   dev,
		Swap:     core.SwapVsync,
		Target:   core.TargetTexture,
		UseVBO:   true,
		VBOUsage: gles.STATIC_DRAW,
	}
}

// Fig3Result holds the vsync/swap/fp24 ladder.
type Fig3Result struct {
	Configs []string // optimisation steps, in paper order
	// Speedup[series][step] relative to the baseline; series are
	// "<dev> sum" and "<dev> sgemm".
	Speedup map[string][]float64
	Times   map[string][]timing.Time
	// Headline is the best sum speedup (the paper's ">16x" claim).
	Headline float64
}

// Fig3 reproduces "Effect of Vsync for sum and sgemm": baseline →
// eglSwapInterval(0) → no eglSwapBuffers → no swap + fp24 kernel.
func Fig3(ctx context.Context, devs []*device.Profile, o Opts) (*Fig3Result, error) {
	memo := calibrations{}
	res := &Fig3Result{
		Configs: []string{"baseline", "eglSwapInterval(0)", "No eglSwapBuffers", "No eglSwapBuffers and fp24 kernel"},
		Speedup: map[string][]float64{},
		Times:   map[string][]timing.Time{},
	}
	steps := []func(*core.Config){
		func(c *core.Config) {},
		func(c *core.Config) { c.Swap = core.SwapNoVsync },
		func(c *core.Config) { c.Swap = core.SwapNone },
		func(c *core.Config) {
			c.Swap = core.SwapNone
			c.Kernel = kernels.FP24Options
		},
	}
	for _, dev := range devs {
		for _, spec := range []Spec{{Workload: WSum}, {Workload: WSgemm, Block: 16}} {
			series := fmt.Sprintf("%s %s", shortName(dev), spec.Workload)
			var times []timing.Time
			for _, mut := range steps {
				cfg := bestPractices(dev)
				mut(&cfg)
				r, err := measure(ctx, memo, cfg, spec, o)
				if err != nil {
					return nil, fmt.Errorf("fig3 %s: %w", series, err)
				}
				times = append(times, r.PerIteration)
			}
			base := float64(times[0])
			sp := make([]float64, len(times))
			for i, t := range times {
				sp[i] = base / float64(t)
			}
			res.Times[series] = times
			res.Speedup[series] = sp
			if spec.Workload == WSum && sp[len(sp)-1] > res.Headline {
				res.Headline = sp[len(sp)-1]
			}
		}
	}
	return res, nil
}

// Table renders the figure.
func (r *Fig3Result) Table() *Table {
	t := &Table{
		Title:   "Figure 3: Effect of Vsync for sum and sgemm (speedup over baseline)",
		Note:    "paper: SGX sum 1/3.47/3.85 · VCore sum 9.22/16.11/16.28 · SGX sgemm 1/1.13/1.24 · VCore sgemm 1.24/1.24/1.48",
		Columns: append([]string{"series"}, r.Configs[1:]...),
	}
	for _, series := range []string{"SGX sum", "VCore sum", "SGX sgemm", "VCore sgemm"} {
		sp, ok := r.Speedup[series]
		if !ok {
			continue
		}
		row := []string{series}
		for _, v := range sp[1:] {
			row = append(row, fmtSpeedup(v))
		}
		t.AddRow(row...)
	}
	return t
}

// VBOResult holds the §V-B text experiment: VBOs and usage hints.
type VBOResult struct {
	Labels  []string
	Speedup map[string][]float64 // per device
}

// FigVBO reproduces the Vertex Buffer Object result: sum with client-side
// arrays versus VBOs under each usage hint (paper: up to 1.5%).
func FigVBO(ctx context.Context, devs []*device.Profile, o Opts) (*VBOResult, error) {
	memo := calibrations{}
	res := &VBOResult{
		Labels:  []string{"client arrays", "VBO STATIC_DRAW", "VBO STREAM_DRAW", "VBO DYNAMIC_DRAW"},
		Speedup: map[string][]float64{},
	}
	muts := []func(*core.Config){
		func(c *core.Config) { c.UseVBO = false },
		func(c *core.Config) { c.UseVBO = true; c.VBOUsage = gles.STATIC_DRAW },
		func(c *core.Config) { c.UseVBO = true; c.VBOUsage = gles.STREAM_DRAW },
		func(c *core.Config) { c.UseVBO = true; c.VBOUsage = gles.DYNAMIC_DRAW },
	}
	for _, dev := range devs {
		var times []timing.Time
		for _, mut := range muts {
			cfg := bestPractices(dev)
			cfg.Swap = core.SwapNone
			mut(&cfg)
			r, err := measure(ctx, memo, cfg, Spec{Workload: WSum}, o)
			if err != nil {
				return nil, fmt.Errorf("vbo: %w", err)
			}
			times = append(times, r.PerIteration)
		}
		base := float64(times[0])
		sp := make([]float64, len(times))
		for i, t := range times {
			sp[i] = base / float64(t)
		}
		res.Speedup[shortName(dev)] = sp
	}
	return res, nil
}

// Table renders the experiment.
func (r *VBOResult) Table() *Table {
	t := &Table{
		Title:   "VBO and usage hints for sum (speedup over client-side arrays)",
		Note:    "paper (text): VBOs improve sum up to 1.5% depending on the memory hint",
		Columns: append([]string{"device"}, r.Labels[1:]...),
	}
	for _, dev := range []string{"SGX", "VCore"} {
		sp, ok := r.Speedup[dev]
		if !ok {
			continue
		}
		row := []string{dev}
		for _, v := range sp[1:] {
			row = append(row, fmt.Sprintf("%.3fx", v))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig4aResult compares framebuffer and texture rendering.
type Fig4aResult struct {
	// Times[series] for series "<dev> <workload> <target>".
	Times map[string]timing.Time
	// TexOverFB[dev][workload] = time(FB)/time(texture): >1 means texture
	// rendering wins.
	TexOverFB map[string]map[string]float64
}

// Fig4a reproduces "FB vs Texture Rendering" on the optimised versions:
// sum, sum with an artificial dependency, and sgemm (block 16).
func Fig4a(ctx context.Context, devs []*device.Profile, o Opts) (*Fig4aResult, error) {
	memo := calibrations{}
	res := &Fig4aResult{Times: map[string]timing.Time{}, TexOverFB: map[string]map[string]float64{}}
	specs := []Spec{{Workload: WSum}, {Workload: WSumDep}, {Workload: WSgemm, Block: 16}}
	for _, dev := range devs {
		res.TexOverFB[shortName(dev)] = map[string]float64{}
		for _, spec := range specs {
			var times [2]timing.Time
			for ti, target := range []core.RenderTarget{core.TargetFramebuffer, core.TargetTexture} {
				cfg := bestPractices(dev)
				cfg.Target = target
				// Optimised versions: no presentation in either mode (the
				// best Fig. 3 configuration carries over).
				cfg.Swap = core.SwapNone
				r, err := measure(ctx, memo, cfg, spec, o)
				if err != nil {
					return nil, fmt.Errorf("fig4a %s %s: %w", dev.Name, spec.Workload, err)
				}
				times[ti] = r.PerIteration
				res.Times[fmt.Sprintf("%s %s %s", shortName(dev), spec.Workload, target)] = r.PerIteration
			}
			res.TexOverFB[shortName(dev)][spec.Workload.String()] = float64(times[0]) / float64(times[1])
		}
	}
	return res, nil
}

// Table renders the figure.
func (r *Fig4aResult) Table() *Table {
	t := &Table{
		Title:   "Figure 4a: FB vs Texture rendering (texture speedup over FB; <1 means FB wins)",
		Note:    "paper: sum/SGX 2237x · sum/VCore ~10x · sgemm prefers FB on both · with deps SGX→texture, VCore→FB",
		Columns: []string{"device", "sum", "sum+dep", "sgemm"},
	}
	for _, dev := range []string{"SGX", "VCore"} {
		m, ok := r.TexOverFB[dev]
		if !ok {
			continue
		}
		t.AddRow(dev, fmtSpeedup(m["sum"]), fmtSpeedup(m["sum+dep"]), fmtSpeedup(m["sgemm"]))
	}
	return t
}

// Fig4bResult is the blocking sweep.
type Fig4bResult struct {
	Blocks []int
	// Times[dev][target][i] is the per-multiplication time for Blocks[i].
	Times map[string]map[string][]timing.Time
	// CompileFail notes block sizes that exceeded implementation limits.
	CompileFail map[string][]int
}

// Fig4b reproduces "Blocking in sgemm": block sizes 1..16 under both
// rendering targets, plus the >16 compile failures.
func Fig4b(ctx context.Context, devs []*device.Profile, o Opts) (*Fig4bResult, error) {
	memo := calibrations{}
	res := &Fig4bResult{
		Blocks:      []int{1, 2, 4, 8, 16},
		Times:       map[string]map[string][]timing.Time{},
		CompileFail: map[string][]int{},
	}
	for _, dev := range devs {
		dn := shortName(dev)
		res.Times[dn] = map[string][]timing.Time{}
		for _, target := range []core.RenderTarget{core.TargetFramebuffer, core.TargetTexture} {
			var times []timing.Time
			for _, block := range res.Blocks {
				cfg := bestPractices(dev)
				cfg.Target = target
				cfg.Swap = core.SwapNone
				r, err := measure(ctx, memo, cfg, Spec{Workload: WSgemm, Block: block}, o)
				if err != nil {
					return nil, fmt.Errorf("fig4b %s block %d: %w", dev.Name, block, err)
				}
				times = append(times, r.PerIteration)
			}
			res.Times[dn][target.String()] = times
		}
		// Demonstrate the implementation-limit ceiling above block 16: the
		// paper-size kernel fails to compile under the device's limits.
		// Only an exceeded limit counts; any other error ends the figure.
		for _, block := range []int{32, 64} {
			_, err := build(bestPractices(dev), Spec{Workload: WSgemm, Block: block}, o.withDefaults().PaperSize, o.Seed, true)
			var le *shader.LimitError
			if errors.As(err, &le) {
				res.CompileFail[dn] = append(res.CompileFail[dn], block)
			} else if err != nil {
				return nil, fmt.Errorf("fig4b %s block %d: %w", dev.Name, block, err)
			}
		}
	}
	return res, nil
}

// Table renders the figure.
func (r *Fig4bResult) Table() *Table {
	t := &Table{
		Title:   "Figure 4b: Blocking in sgemm (time per multiplication; lower is better)",
		Note:    "paper: performance rises with block size; SGX FB catastrophic below block 4 with crossover at 4; VCore FB always wins; >16 fails to compile",
		Columns: []string{"device/target", "b=1", "b=2", "b=4", "b=8", "b=16"},
	}
	for _, dev := range []string{"SGX", "VCore"} {
		for _, target := range []string{"framebuffer", "texture"} {
			times, ok := r.Times[dev][target]
			if !ok {
				continue
			}
			row := []string{fmt.Sprintf("%s %s", dev, target)}
			for _, tm := range times {
				row = append(row, fmtMs(tm))
			}
			t.AddRow(row...)
		}
		if fails := r.CompileFail[dev]; len(fails) > 0 {
			t.Note += fmt.Sprintf(" · %s blocks %v: compile failure (reproduced)", dev, fails)
		}
	}
	return t
}

// Fig5Result is the texture-reuse experiment for one rendering target.
type Fig5Result struct {
	Target core.RenderTarget
	// Speedup[dev][workload] = time(no reuse)/time(reuse): >1 means reuse
	// helps.
	Speedup map[string]map[string]float64
}

// Fig5 reproduces "Performance improvement with texture memory reuse" for
// the given rendering target (Fig. 5a: texture rendering, Fig. 5b:
// framebuffer rendering), block size 16, streaming inputs.
func Fig5(ctx context.Context, devs []*device.Profile, target core.RenderTarget, o Opts) (*Fig5Result, error) {
	memo := calibrations{}
	res := &Fig5Result{Target: target, Speedup: map[string]map[string]float64{}}
	for _, dev := range devs {
		dn := shortName(dev)
		res.Speedup[dn] = map[string]float64{}
		for _, spec := range []Spec{{Workload: WSum}, {Workload: WSgemm, Block: 16}} {
			var times [2]timing.Time
			for ri, reuse := range []bool{false, true} {
				cfg := bestPractices(dev)
				cfg.Target = target
				cfg.StreamInputs = true
				cfg.Swap = core.SwapNone
				if target == core.TargetFramebuffer {
					cfg.ReuseOutputTextures = reuse
				}
				cfg.ReuseInputTextures = reuse
				r, err := measure(ctx, memo, cfg, spec, o)
				if err != nil {
					return nil, fmt.Errorf("fig5 %s %s reuse=%v: %w", dev.Name, spec.Workload, reuse, err)
				}
				times[ri] = r.PerIteration
			}
			res.Speedup[dn][spec.Workload.String()] = float64(times[0]) / float64(times[1])
		}
	}
	return res, nil
}

// Table renders the figure.
func (r *Fig5Result) Table() *Table {
	sub := "5a (texture rendering)"
	note := "paper: VCore +15% (input textures); SGX −2…7%"
	if r.Target == core.TargetFramebuffer {
		sub = "5b (framebuffer rendering)"
		note = "paper: no improvement on either platform; sgemm on SGX drops to 0.70x (false sharing)"
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure %s: texture memory reuse speedup (reuse vs no reuse)", sub),
		Note:    note,
		Columns: []string{"device", "sum", "sgemm"},
	}
	for _, dev := range []string{"SGX", "VCore"} {
		m, ok := r.Speedup[dev]
		if !ok {
			continue
		}
		t.AddRow(dev, fmtSpeedup(m["sum"]), fmtSpeedup(m["sgemm"]))
	}
	return t
}
