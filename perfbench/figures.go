package main

// The figures workload: regenerate the paper's Fig. 3 and Fig. 4b at paper
// settings and check both tables byte for byte against glesbench's golden
// output. The traced run replays the same configurations through the
// public steps of bench.Measure so each step gets its own span.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"gles2gpgpu/internal/bench"
	"gles2gpgpu/internal/codec"
	"gles2gpgpu/internal/core"
	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/gles"
	"gles2gpgpu/internal/glsl"
	"gles2gpgpu/internal/kernels"
	"gles2gpgpu/internal/ref"
	"gles2gpgpu/internal/timing"
)

// goldenPath is glesbench's recorded default output, relative to the
// repository root the benchmark runs from.
const goldenPath = "glesbench_output.txt"

// Paper settings of bench.Opts' defaults, which the replay mirrors.
const (
	paperSize = 1024
	calibSize = 64
	warmIters = 8
	iters     = 100
)

// fig4bBlocks are Fig. 4b's measured sgemm blocks; failBlocks must fail to
// compile on both devices.
var (
	fig4bBlocks = []int{1, 2, 4, 8, 16}
	failBlocks  = []int{32, 64}
)

// goldenSection returns the part of the golden output that a table renders
// to: its title line through the blank line that ends it.
func goldenSection(golden, title string) (string, error) {
	i := strings.Index(golden, title+"\n")
	if i < 0 {
		return "", fmt.Errorf("golden output has no table %q", title)
	}
	j := strings.Index(golden[i:], "\n\n")
	if j < 0 {
		return "", fmt.Errorf("golden table %q is not terminated", title)
	}
	return golden[i : i+j+2], nil
}

// checkTables compares rendered figures with the golden output.
func checkTables(golden string, f3 *bench.Fig3Result, f4 *bench.Fig4bResult) error {
	headline := fmt.Sprintf("Headline: best sum speedup over the ES2-best-practices baseline: %.1fx (paper: >16x)\n", f3.Headline)
	if !strings.Contains(golden, headline) {
		return fmt.Errorf("fig3 headline %q not in golden output", strings.TrimSpace(headline))
	}
	for _, t := range []*bench.Table{f3.Table(), f4.Table()} {
		want, err := goldenSection(golden, t.Title)
		if err != nil {
			return err
		}
		if got := t.String(); got != want {
			return fmt.Errorf("table %q differs from golden output:\n%s", t.Title, got)
		}
	}
	return nil
}

// figState is what the figures workload sets up: the golden tables and
// every kernel the two figures compile, built once per device and
// precision to prove they compile (and that blocks above 16 do not).
type figState struct {
	golden string
	devs   []*device.Profile
}

func setupFigures(tr *tracer) (*figState, error) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	st := &figState{golden: string(golden), devs: bench.Devices()}
	for _, dev := range st.devs {
		for _, ko := range []kernels.Options{kernels.DefaultOptions, kernels.FP24Options} {
			e, err := core.NewEngine(core.Config{Device: dev, Width: calibSize, Height: calibSize, Kernel: ko})
			if err != nil {
				return nil, err
			}
			id := tr.begin(setupOp, 0, "gles.build_kernel")
			_, err = e.BuildKernel(kernels.Sum(ko))
			tr.end(id)
			if err != nil {
				return nil, err
			}
			for _, b := range append(append([]int(nil), fig4bBlocks...), failBlocks...) {
				id := tr.begin(setupOp, 0, "gles.build_kernel")
				src, err := kernels.SgemmPass(calibSize, b, ko)
				if err == nil {
					_, err = e.BuildKernel(src)
				}
				tr.end(id)
				if overLimit := b > 16; overLimit != (err != nil) {
					return nil, fmt.Errorf("%s sgemm block %d: compile error %v, want failure %v", dev.Name, b, err, overLimit)
				}
			}
		}
	}
	return st, nil
}

func runFigures(o options) (*outcome, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	setupS, st, err := medianSetup(func() (*figState, error) { return setupFigures(tr) }, func(*figState) {})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	ctx := context.Background()
	opts := bench.Opts{Seed: o.seed}
	library := func() error {
		f3, err := bench.Fig3(ctx, st.devs, opts)
		if err != nil {
			return err
		}
		f4, err := bench.Fig4b(ctx, st.devs, opts)
		if err != nil {
			return err
		}
		return checkTables(st.golden, f3, f4)
	}
	// Warm-up: one untimed, verified regeneration.
	if err := library(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	out := &outcome{values: map[string]float64{}}
	var draws int64
	passDraws := map[int64]bool{}
	var allocMB, mallocs, gcs float64
	plain, traced, failed := closedLoop(o.seconds, 5, o.trace, func(i int, traced bool) (time.Duration, error) {
		if !traced {
			start := time.Now()
			err := library()
			return time.Since(start), err
		}
		mem := startMem()
		start := time.Now()
		f3, f4, n, err := replayFigures(tr, i, st.devs, o.seed)
		d := time.Since(start)
		a, m, g := mem.stop()
		allocMB, mallocs, gcs = allocMB+a, mallocs+m, gcs+g
		draws += n
		passDraws[n] = true
		if err == nil {
			err = checkTables(st.golden, f3, f4)
		}
		return d, err
	})
	out.attempted, out.failed = len(plain)+len(traced), failed
	if !o.trace {
		out.values["setup_s"] = setupS
		out.values["p50_ms"] = median(plain)
		// Too few ops for a p90: report the slowest op as the tail.
		out.values["p90_ms"] = maxOf(plain)
		out.values["capacity_jobs_s"] = 1000 / mean(plain)
		return out, nil
	}
	ops := float64(len(traced))
	out.spans = tr.snapshot()
	self := selfTimes(opSpans(out.spans))
	v := out.values
	v["glsl.frontend_ms"] = ms(self["glsl.frontend"]) / ops
	v["gles.compile_ms"] = ms(self["gles.build_kernel"]-self["glsl.frontend"]) / ops
	v["core.engine_ms"] = ms(self["core.engine"]) / ops
	v["gles.calib_ms"] = ms(self["gles.calib"]) / ops
	v["timing.ns_per_draw"] = float64(self["timing.replay"]) / float64(draws)
	v["gpu.draws"] = float64(draws) / ops
	v["go.alloc_mb"], v["go.mallocs"], v["go.gc_cycles"] = allocMB/ops, mallocs/ops, gcs/ops
	v["trace.overhead_pct"] = overheadPct(plain, traced)
	out.check(len(passDraws) == 1, "gpu.draws differs between passes: %v", passDraws)
	return out, nil
}

// opSpans drops set-up spans, keeping those of timed ops.
func opSpans(spans []span) []span {
	var out []span
	for _, s := range spans {
		if s.Op != setupOp {
			out = append(out, s)
		}
	}
	return out
}

// shortName is the figures' series label for a device.
func shortName(dev *device.Profile) string {
	if dev.Name == device.VideoCoreIV().Name {
		return "VCore"
	}
	return "SGX"
}

// bestPractices is the figures' baseline configuration (VBOs, texture
// rendering, vsync'd presentation, 32-bit kernels).
func bestPractices(dev *device.Profile) core.Config {
	return core.Config{Device: dev, Swap: core.SwapVsync, Target: core.TargetTexture, UseVBO: true, VBOUsage: gles.STATIC_DRAW}
}

// replayFigures rebuilds Fig. 3 and Fig. 4b by replaying every
// configuration through replayMeasure. It returns the figures and the
// number of timing-replay draws.
func replayFigures(tr *tracer, op int, devs []*device.Profile, seed int64) (*bench.Fig3Result, *bench.Fig4bResult, int64, error) {
	root := tr.begin(op, 0, "figures.pass")
	defer tr.end(root)
	var draws int64
	measure := func(cfg core.Config, wl bench.Workload, block int) (timing.Time, error) {
		t, n, err := replayMeasure(tr, op, root, cfg, wl, block, seed)
		draws += n
		return t, err
	}

	f3 := &bench.Fig3Result{
		Configs: []string{"baseline", "eglSwapInterval(0)", "No eglSwapBuffers", "No eglSwapBuffers and fp24 kernel"},
		Speedup: map[string][]float64{},
		Times:   map[string][]timing.Time{},
	}
	steps := []func(*core.Config){
		func(*core.Config) {},
		func(c *core.Config) { c.Swap = core.SwapNoVsync },
		func(c *core.Config) { c.Swap = core.SwapNone },
		func(c *core.Config) { c.Swap, c.Kernel = core.SwapNone, kernels.FP24Options },
	}
	for _, dev := range devs {
		for _, spec := range []struct {
			wl    bench.Workload
			block int
		}{{bench.WSum, 0}, {bench.WSgemm, 16}} {
			series := shortName(dev) + " " + spec.wl.String()
			var times []timing.Time
			for _, mut := range steps {
				cfg := bestPractices(dev)
				mut(&cfg)
				t, err := measure(cfg, spec.wl, spec.block)
				if err != nil {
					return nil, nil, draws, fmt.Errorf("fig3 %s: %w", series, err)
				}
				times = append(times, t)
			}
			sp := make([]float64, len(times))
			for i, t := range times {
				sp[i] = float64(times[0]) / float64(t)
			}
			f3.Times[series], f3.Speedup[series] = times, sp
			if spec.wl == bench.WSum && sp[len(sp)-1] > f3.Headline {
				f3.Headline = sp[len(sp)-1]
			}
		}
	}

	f4 := &bench.Fig4bResult{Blocks: fig4bBlocks, Times: map[string]map[string][]timing.Time{}, CompileFail: map[string][]int{}}
	for _, dev := range devs {
		dn := shortName(dev)
		f4.Times[dn] = map[string][]timing.Time{}
		for _, target := range []core.RenderTarget{core.TargetFramebuffer, core.TargetTexture} {
			var times []timing.Time
			for _, block := range fig4bBlocks {
				cfg := bestPractices(dev)
				cfg.Target, cfg.Swap = target, core.SwapNone
				t, err := measure(cfg, bench.WSgemm, block)
				if err != nil {
					return nil, nil, draws, fmt.Errorf("fig4b %s block %d: %w", dev.Name, block, err)
				}
				times = append(times, t)
			}
			f4.Times[dn][target.String()] = times
		}
		for _, block := range failBlocks {
			cfg := bestPractices(dev)
			cfg.Swap = core.SwapNone
			if _, err := measure(cfg, bench.WSgemm, block); err != nil {
				f4.CompileFail[dn] = append(f4.CompileFail[dn], block)
			}
		}
	}
	return f3, f4, draws, nil
}

// randMatrix mirrors bench's calibration inputs: values in [0, 0.999).
func randMatrix(n int, seed int64) *codec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := codec.NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = rng.Float64() * 0.999
	}
	return m
}

// replayMeasure is bench.Measure split into its public steps, each under
// its own span: engine construction, GLSL front end, kernel build, the
// functional calibration run, its reference check, and the timing-only
// replay at paper size. It returns the virtual time per iteration and the
// replay's draw count.
func replayMeasure(tr *tracer, op, parent int, cfg core.Config, wl bench.Workload, block int, seed int64) (timing.Time, int64, error) {
	m := tr.begin(op, parent, "bench.measure")
	defer tr.end(m)
	if seed == 0 {
		seed = 1 // bench.Opts' default
	}
	build := func(n int, timingOnly bool) (*core.Engine, core.Runner, *core.Kernel, func() []float64, error) {
		cfg.Width, cfg.Height = n, n
		id := tr.begin(op, m, "core.engine")
		e, err := core.NewEngine(cfg)
		tr.end(id)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		if timingOnly {
			e.SetTimingOnly(true)
		}
		src := kernels.Sum(e.Config().Kernel)
		if wl == bench.WSgemm {
			if src, err = kernels.SgemmPass(n, block, e.Config().Kernel); err != nil {
				return nil, nil, nil, nil, err
			}
		}
		id = tr.begin(op, m, "gles.build_kernel")
		fe := tr.begin(op, id, "glsl.frontend")
		_, errV := glsl.Frontend(kernels.VertexShader, glsl.CompileOptions{Stage: glsl.StageVertex})
		_, errF := glsl.Frontend(src, glsl.CompileOptions{Stage: glsl.StageFragment})
		tr.end(fe)
		if errV != nil || errF != nil {
			tr.end(id)
			return nil, nil, nil, nil, fmt.Errorf("front end: %v %v", errV, errF)
		}
		_, err = e.CachedKernel(src)
		tr.end(id)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		a, b := codec.NewMatrix(n, n), codec.NewMatrix(n, n)
		if !timingOnly {
			a, b = randMatrix(n, seed), randMatrix(n, seed+1)
		}
		id = tr.begin(op, m, "core.runner")
		defer tr.end(id)
		if wl == bench.WSgemm {
			r, err := core.NewSgemm(e, a, b, block)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			return e, r, r.Kernel(), func() []float64 {
				want := make([]float64, n*n)
				ref.Sgemm(n, a.Data, b.Data, want)
				return want
			}, nil
		}
		r, err := core.NewSum(e, a, b)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		return e, r, r.Kernel(), func() []float64 {
			want := make([]float64, n*n)
			ref.Sum(a.Data, b.Data, want)
			return want
		}, nil
	}
	ctx := context.Background()

	e, r, k, want, err := build(calibSize, false)
	if err != nil {
		return 0, 0, err
	}
	id := tr.begin(op, m, "gles.calib")
	err = r.RunOnce(ctx)
	tr.end(id)
	if err != nil {
		return 0, 0, err
	}
	got, err := r.Result()
	if err != nil {
		return 0, 0, err
	}
	tol := 1e-4
	if wl == bench.WSgemm {
		tol = 1e-2
	}
	if d := ref.MaxAbsDiff(want(), got.Data); d > tol {
		return 0, 0, fmt.Errorf("calibration max error %g > %g", d, tol)
	}
	frags, cycles, tex, ok := e.GL().DrawStatsFor(k.Program(), calibSize, calibSize)
	if !ok || frags == 0 {
		return 0, 0, fmt.Errorf("no draw stats measured")
	}

	pe, pr, pk, _, err := build(paperSize, true)
	if err != nil {
		return 0, 0, err
	}
	n2 := int64(paperSize) * paperSize
	pe.GL().PrimeStats(pk.Program(), paperSize, paperSize, n2, cycles*n2/frags, tex*n2/frags)
	id = tr.begin(op, m, "timing.replay")
	defer tr.end(id)
	for i := 0; i < warmIters; i++ {
		if err := pr.RunOnce(ctx); err != nil {
			return 0, 0, err
		}
	}
	t0 := pe.Now()
	for i := 0; i < iters; i++ {
		if err := pr.RunOnce(ctx); err != nil {
			return 0, 0, err
		}
	}
	pe.Finish()
	return (pe.Now() - t0) / iters, pe.Machine().Stats.Draws, nil
}
