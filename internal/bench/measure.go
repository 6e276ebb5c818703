// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§V): the vsync ladder (Fig. 3), the
// VBO usage-hint text result, framebuffer-versus-texture rendering
// (Fig. 4a), sgemm blocking (Fig. 4b) and texture-memory reuse (Fig. 5).
//
// Methodology (mirroring §V-A): each benchmark body is executed repeatedly
// and the steady-state virtual time per iteration is reported. One
// iteration runs functionally at a small calibration size and is validated
// against the CPU references; the measured per-fragment costs (exact for
// these data-independent kernels) then drive a timing-only simulation at
// the paper's 1024×1024 size for the configured repetition count. That
// simulation stops replaying once two iteration boundaries prove the
// machine repeats, and shifts it over the remaining whole periods (see
// replay): the result equals the full replay's exactly. A figure validates
// each distinct functional configuration once: configurations that differ
// only in fields that shape the timing model share one calibration (see
// calibKey).
package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"gles2gpgpu/internal/codec"
	"gles2gpgpu/internal/core"
	"gles2gpgpu/internal/gpu"
	"gles2gpgpu/internal/ref"
	"gles2gpgpu/internal/timing"
)

// Workload selects the benchmark.
type Workload int

// Workloads.
const (
	WSum Workload = iota
	// WSumDep is sum with an artificial dependency between consecutive
	// kernels (Fig. 4a's right-hand experiment).
	WSumDep
	// WSgemm is the multi-pass blocked matrix multiply; one iteration is
	// one full multiplication (M/block passes).
	WSgemm
)

func (w Workload) String() string {
	switch w {
	case WSumDep:
		return "sum+dep"
	case WSgemm:
		return "sgemm"
	}
	return "sum"
}

// Spec is a workload instance.
type Spec struct {
	Workload Workload
	Block    int // sgemm block size
}

// Opts controls the measurement methodology.
type Opts struct {
	// PaperSize is the matrix dimension of the timing runs (default 1024,
	// the paper's size).
	PaperSize int
	// CalibSize is the matrix dimension of the functional validation run
	// (default 64).
	CalibSize int
	// Warm and Iters are the warm-up and measured repetition counts of
	// the benchmark body (defaults 8 and 100; negative counts are an
	// error).
	Warm, Iters int
	// Seed drives the random inputs.
	Seed int64
	// SkipValidation disables the CPU-reference check (used by ablations
	// that perturb the device model, not the numerics).
	SkipValidation bool
	// Workers overrides the host fragment-shading worker count for the
	// functional calibration run (0: engine default). It affects only how
	// long the calibration takes on the host, never the virtual-time
	// measurements.
	Workers int
}

func (o Opts) withDefaults() Opts {
	if o.PaperSize == 0 {
		o.PaperSize = 1024
	}
	if o.CalibSize == 0 {
		o.CalibSize = 64
	}
	if o.Warm == 0 {
		o.Warm = 8
	}
	if o.Iters == 0 {
		o.Iters = 100
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Result is one measured configuration.
type Result struct {
	// PerIteration is the steady-state virtual time per benchmark body.
	PerIteration timing.Time
	// ValidationErr is the max abs error of the functional run against
	// the CPU reference.
	ValidationErr float64
	// Stats are the machine counters of the timing run.
	Stats gpu.Stats
	// HostTime is the host wall-clock time of the functional calibration
	// run — the part parallel shading accelerates. Purely informational;
	// it never feeds the virtual-time model. It is zero when a figure
	// reused an earlier calibration of the same functional configuration.
	HostTime time.Duration
}

// randMatrix produces a unit-range matrix of values in [0, 0.999].
func randMatrix(n int, seed int64) *codec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := codec.NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = rng.Float64() * 0.999
	}
	return m
}

type builtRunner struct {
	runner  core.Runner
	kernel  *core.Kernel
	engine  *core.Engine
	wantRef func() []float64
	n       int
}

// build instantiates the workload on an engine with the given grid size.
func build(cfg core.Config, spec Spec, n int, seed int64, timingOnly bool) (*builtRunner, error) {
	cfg.Width, cfg.Height = n, n
	if spec.Workload == WSumDep {
		cfg.ArtificialDependency = true
	}
	e, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if built != nil {
		built(e)
	}
	if timingOnly {
		e.SetTimingOnly(true)
	}
	// A timing-only engine ignores upload contents: its inputs are shapes.
	a := &codec.Matrix{Rows: n, Cols: n, Range: codec.Unit}
	b := &codec.Matrix{Rows: n, Cols: n, Range: codec.Unit}
	if !timingOnly {
		a = randMatrix(n, seed)
		b = randMatrix(n, seed+1)
	}
	br := &builtRunner{engine: e, n: n}
	switch spec.Workload {
	case WSum, WSumDep:
		r, err := core.NewSum(e, a, b)
		if err != nil {
			return nil, err
		}
		br.runner, br.kernel = r, r.Kernel()
		br.wantRef = func() []float64 {
			want := make([]float64, n*n)
			ref.Sum(a.Data, b.Data, want)
			return want
		}
	case WSgemm:
		block := spec.Block
		if block <= 0 {
			block = 16
		}
		r, err := core.NewSgemm(e, a, b, block)
		if err != nil {
			return nil, err
		}
		br.runner, br.kernel = r, r.Kernel()
		br.wantRef = func() []float64 {
			want := make([]float64, n*n)
			ref.Sgemm(n, a.Data, b.Data, want)
			return want
		}
	default:
		return nil, fmt.Errorf("bench: unknown workload %d", spec.Workload)
	}
	return br, nil
}

// Measure runs one configuration per the package methodology. ctx cancels
// the measurement between iterations (and between the passes of multi-pass
// workloads, via Runner.RunOnce). Every call runs its own functional
// calibration.
func Measure(ctx context.Context, cfg core.Config, spec Spec, o Opts) (Result, error) {
	return measure(ctx, nil, cfg, spec, o)
}

// measure is Measure with the functional calibration taken from memo when
// an earlier call stored one under the same key. A non-nil memo receives
// every successful calibration; failures are never stored, so a failing
// configuration fails again on every call.
func measure(ctx context.Context, memo calibrations, cfg core.Config, spec Spec, o Opts) (Result, error) {
	if o.Warm < 0 || o.Iters < 0 {
		return Result{}, fmt.Errorf("bench: negative repetition count (warm %d, iters %d)", o.Warm, o.Iters)
	}
	o = o.withDefaults()
	if o.Workers != 0 {
		cfg.Workers = o.Workers
	}
	key := keyOf(cfg, spec, o)
	cal, reused := memo[key]
	if !reused {
		var err error
		if cal, err = calibrate(ctx, cfg, spec, o); err != nil {
			return Result{ValidationErr: cal.validationErr, HostTime: cal.hostTime}, err
		}
		if memo != nil {
			memo[key] = cal
		}
	}
	res, err := timeAtPaperSize(ctx, cfg, spec, o, cal)
	res.ValidationErr = cal.validationErr
	if !reused {
		res.HostTime = cal.hostTime
	}
	if err != nil {
		return res, err
	}
	if observe != nil {
		observe(cfg, spec, res)
	}
	return res, nil
}

// calibration is what a functional calibration run hands the timing
// replay: the per-draw fragment, cycle and texture-fetch counts at the
// calibration size, and the validation error against the CPU reference.
type calibration struct {
	frags, cycles, tex int64
	validationErr      float64
	hostTime           time.Duration
}

// calibKey identifies a functional calibration. It is the configuration
// with every field reset that only shapes the timing model, never the
// functional run: the device, presentation, render target, vertex source,
// input streaming, texture reuse and target invalidation. Every other
// field, including any added later, stays in the key. Instruction costs
// are the same on every device (shader.InstCost), so a device's only input
// to the functional run is its Limits, which only decide whether the
// kernel compiles; the paper-size timing build compiles under its own
// device's Limits, so a device that rejects the kernel still fails when it
// reuses another device's calibration.
// TestCalibrationReuseMatchesFreshMeasure checks that configurations
// sharing a key calibrate to byte-identical output and equal counts.
type calibKey struct {
	cfg            core.Config
	spec           Spec
	size           int
	seed           int64
	skipValidation bool
}

func keyOf(cfg core.Config, spec Spec, o Opts) calibKey {
	cfg.Device = nil
	cfg.Swap, cfg.Target = 0, 0
	cfg.UseVBO, cfg.VBOUsage = false, 0
	cfg.StreamInputs = false
	cfg.ReuseInputTextures, cfg.ReuseOutputTextures = false, false
	cfg.InvalidateTarget, cfg.UseDiscardExtension = nil, false
	return calibKey{cfg: cfg, spec: spec, size: o.CalibSize, seed: o.Seed, skipValidation: o.SkipValidation}
}

// calibrations holds the successful calibrations of one figure call.
type calibrations map[calibKey]calibration

// calibrate is Measure's first step: one functional iteration at the
// calibration size, validated against the CPU reference.
func calibrate(ctx context.Context, cfg core.Config, spec Spec, o Opts) (calibration, error) {
	var c calibration
	hostStart := time.Now()
	cal, err := build(cfg, spec, o.CalibSize, o.Seed, false)
	if err != nil {
		return c, fmt.Errorf("bench: calibration: %w", err)
	}
	if err := cal.runner.RunOnce(ctx); err != nil {
		return c, fmt.Errorf("bench: calibration run: %w", err)
	}
	c.hostTime = time.Since(hostStart)
	if !o.SkipValidation {
		got, err := cal.runner.Result()
		if err != nil {
			return c, err
		}
		c.validationErr = ref.MaxAbsDiff(cal.wantRef(), got.Data)
		tol := validationTolerance(spec, o.CalibSize)
		if c.validationErr > tol {
			return c, fmt.Errorf("bench: validation failed: max error %g > %g", c.validationErr, tol)
		}
	}
	var ok bool
	c.frags, c.cycles, c.tex, ok = cal.engine.GL().DrawStatsFor(cal.kernel.Program(), o.CalibSize, o.CalibSize)
	if !ok || c.frags == 0 {
		return c, fmt.Errorf("bench: no draw stats measured")
	}
	if calibrated != nil {
		calibrated(cal.runner, c)
	}
	return c, nil
}

// timeAtPaperSize is Measure's second step: the timing-only replay at the
// paper size, driven by the calibration's counts scaled to that size.
func timeAtPaperSize(ctx context.Context, cfg core.Config, spec Spec, o Opts, cal calibration) (Result, error) {
	var res Result
	paper, err := build(cfg, spec, o.PaperSize, o.Seed, true)
	if err != nil {
		return res, fmt.Errorf("bench: timing build: %w", err)
	}
	n2 := int64(o.PaperSize) * int64(o.PaperSize)
	paper.engine.GL().PrimeStats(paper.kernel.Program(), o.PaperSize, o.PaperSize,
		n2, cal.cycles*n2/cal.frags, cal.tex*n2/cal.frags)
	t0, err := replay(ctx, paper.engine, paper.runner, o.Warm, o.Iters)
	if err != nil {
		return res, err
	}
	paper.engine.Finish()
	res.PerIteration = (paper.engine.Now() - t0) / timing.Time(o.Iters)
	res.Stats = paper.engine.Machine().Stats
	return res, nil
}

// extrapolate lets replay skip proven-periodic iterations. Tests clear it
// to get the full replay, the oracle extrapolation must match exactly.
var extrapolate = true

// observe, when set by a test, receives every Result Measure returns.
var observe func(core.Config, Spec, Result)

// built, when set by a test, receives every engine build makes before the
// workload is set up on it, so the test can select a reference host path.
var built func(*core.Engine)

// calibrated, when set by a test, receives every successful functional
// calibration run: its runner, which still holds the output, and its
// counts.
var calibrated func(core.Runner, calibration)

// replay runs warm+iters iterations of r on the timing-only engine e and
// returns the virtual time at the end of the warm-ups.
//
// It snapshots e at every iteration boundary. Once the boundary after
// iteration j repeats the one after iteration j-2 (with j-2 >= 1, past the
// runners' first-iteration set-up), the runner and machine are in the same
// state up to an offset of virtual time, so every later pair of iterations
// repeats that pair: replay shifts e over all remaining whole pairs at
// once and runs the odd iteration left over, if any, for real. The result
// is the full replay's, exactly. A boundary the skip jumps over still has
// a known time, which keeps t0 exact when the period is proven inside the
// warm-ups.
func replay(ctx context.Context, e *core.Engine, r core.Runner, warm, iters int) (timing.Time, error) {
	total := warm + iters
	var t0 timing.Time
	// snaps[i] is the boundary after iteration i+1; nil once skipped.
	var snaps []core.Snapshot
	if extrapolate {
		snaps = make([]core.Snapshot, 0, total)
	}
	for j := 1; j <= total; j++ {
		if err := r.RunOnce(ctx); err != nil {
			return 0, err
		}
		if j == warm {
			t0 = e.Now()
		}
		if snaps == nil {
			continue
		}
		snaps = append(snaps, e.Snapshot())
		if j < 3 || !snaps[j-1].Repeats(snaps[j-3]) {
			continue
		}
		from, to := snaps[j-3], snaps[j-1]
		k := (total - j) / 2
		if err := e.Shift(int64(k), from, to); err != nil {
			return 0, err
		}
		if j < warm {
			// Boundary warm lies d iterations past from, in the periodic
			// stretch: d/2 whole periods after from or its successor.
			d := warm - (j - 2)
			t0 = snaps[j-3+d%2].Now() + timing.Time(d/2)*(to.Now()-from.Now())
		}
		j += 2 * k
		snaps = nil
	}
	return t0, nil
}

// validationTolerance bounds the acceptable GPU-vs-CPU error: the [13]
// encoding quantum scaled by the output range plus float32 arithmetic
// noise accumulated over the pass count.
func validationTolerance(spec Spec, n int) float64 {
	if spec.Workload == WSgemm {
		// Output range [0,n), up to n/block passes of accumulated
		// truncation; 1e-2 absolute is comfortably above the worst case
		// at calibration sizes and far below any real defect.
		return 1e-2
	}
	return 1e-4
}
