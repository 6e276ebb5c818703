package main

// The dispatch workload: a closed-loop, single-goroutine library user on
// vc4 with the serve worker's engine configuration. One op is a round of
// four jobs, each on fresh seeded inputs and each checked against
// internal/ref: sum at n=1024 (codec-bound), sgemm at n=128 b=16
// (sampling- and shading-bound), jacobi8 at n=128 run to convergence
// (coherence-bound), and the sepconv and histeq pipelines at n=512
// (planner, fusion and resident intermediates).

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"gles2gpgpu/internal/codec"
	"gles2gpgpu/internal/core"
	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/kernels"
	"gles2gpgpu/internal/pipeline"
	"gles2gpgpu/internal/ref"
)

const (
	sumN     = 1024
	sgemmN   = 128
	sgemmBlk = 16
	jacobiN  = 128
	visionN  = 512
	// jacobiVariants is how many initial grids the jacobi8 job cycles
	// through (see jacobiGrid).
	jacobiVariants = 2
	histKnots      = 8
)

// Tolerances of bench's own checks and pipeline's reference test.
const (
	sumTol     = 1e-4
	sgemmTol   = 1e-2
	sepconvTol = 2e-4
	histeqTol  = 1e-3
)

// jacobiOpts runs jacobi8 to its byte fixed point.
var jacobiOpts = core.StepOpts{MaxIters: 5000, CheckEvery: 25, Tol: 0}

// workerEngine builds an engine the way a serve worker does.
func workerEngine(n int) (*core.Engine, error) {
	return core.NewEngine(core.Config{
		Device: device.VideoCoreIV(),
		Width:  n, Height: n,
		Swap:            core.SwapNone,
		Target:          core.TargetTexture,
		UseVBO:          true,
		TensorPoolBytes: 32 << 20,
	})
}

// jacobiGrid is a jacobi8 initial grid: bench's coherence hot plate with
// the hot edge on the left (variant 0) or, mirrored, on the right. Mirror
// images converge in the same number of iterations, so rounds alternate
// between them: no round starts from the grid the previous one did.
func jacobiGrid(variant int) *codec.Matrix {
	g := codec.NewMatrix(jacobiN, jacobiN)
	x := 0
	if variant%2 == 1 {
		x = jacobiN - 1
	}
	for y := 0; y < jacobiN; y++ {
		g.Set(y, x, 0.9)
	}
	return g
}

// jacobiRef is a jacobi8 run's expected outcome, computed once on a fresh
// engine.
type jacobiRef struct {
	init  *codec.Matrix
	iters int
	state uint64
}

func runJacobi8(e *core.Engine, init *codec.Matrix) (int, uint64, error) {
	r, err := core.NewJacobi8(e, init)
	if err != nil {
		return 0, 0, err
	}
	defer r.Release()
	res, err := r.RunToConvergence(context.Background(), jacobiOpts)
	if err != nil {
		return 0, 0, err
	}
	if !res.Converged {
		return 0, 0, fmt.Errorf("jacobi8 did not converge in %d iterations", res.Iters)
	}
	state, err := r.State()
	if err != nil {
		return 0, 0, err
	}
	h := fnv.New64a()
	h.Write(state)
	return res.Iters, h.Sum64(), nil
}

// dispatchState is the set-up library state: one engine per job, warm
// kernels and tensors, a warm sgemm runner and two compiled plans.
type dispatchState struct {
	sumE, sgemmE, jacobiE, visionE *core.Engine

	sumK             *core.Kernel
	sumA, sumB, sumC *core.Tensor
	sgemm            *core.SgemmRunner
	sepconv, histeq  *pipeline.Plan
	src              *core.Tensor
}

func (s *dispatchState) engines() []*core.Engine {
	return []*core.Engine{s.sumE, s.sgemmE, s.jacobiE, s.visionE}
}

func setupDispatch(tr *tracer, seed int64) (*dispatchState, error) {
	s := &dispatchState{}
	var err error
	for _, p := range []struct {
		e **core.Engine
		n int
	}{{&s.sumE, sumN}, {&s.sgemmE, sgemmN}, {&s.jacobiE, jacobiN}, {&s.visionE, visionN}} {
		if *p.e, err = workerEngine(p.n); err != nil {
			return nil, err
		}
	}
	ko := kernels.DefaultOptions
	if s.sumK, err = s.sumE.CachedKernel(kernels.Sum(ko)); err != nil {
		return nil, err
	}
	s.sumA = s.sumE.NewTensor(sumN, sumN, codec.Unit)
	s.sumB = s.sumE.NewTensor(sumN, sumN, codec.Unit)
	s.sumC = s.sumE.NewTensor(sumN, sumN, codec.Range{Lo: 0, Hi: 2})
	for _, t := range []*core.Tensor{s.sumA, s.sumB, s.sumC} {
		if err := t.AllocateStorage(); err != nil {
			return nil, err
		}
	}
	if s.sgemm, err = core.NewSgemm(s.sgemmE, randMatrix(sgemmN, seed), randMatrix(sgemmN, seed+1), sgemmBlk); err != nil {
		return nil, err
	}
	if _, err = s.jacobiE.CachedKernel(kernels.Jacobi8(jacobiN, jacobiN, ko)); err != nil {
		return nil, err
	}
	for _, p := range []struct {
		plan **pipeline.Plan
		g    pipeline.Graph
	}{
		{&s.sepconv, pipeline.SepConvGraph(visionN, visionN, ko)},
		{&s.histeq, pipeline.HistEqGraph(visionN, visionN, histKnots, ko)},
	} {
		id := tr.begin(setupOp, 0, "pipeline.compile")
		*p.plan, err = pipeline.Compile(s.visionE, p.g)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	s.src = s.visionE.NewTensor(visionN, visionN, codec.Unit)
	return s, s.src.AllocateStorage()
}

// roundInputs are one round's fresh inputs with their expected outputs.
type roundInputs struct {
	sumA, sumB, sgA, sgB *codec.Matrix
	sumWant, sgWant      []float64
	jacobi               *jacobiRef
	sepSrc, histSrc      *codec.Matrix
	sepWant, histWant    []float64
	histScale, histBias  float64
	histP0               float64
	histS                []float64
}

func makeRound(seed int64, round int, jacobi []*jacobiRef) *roundInputs {
	base := seed*1_000_003 + int64(round)*16
	in := &roundInputs{
		sumA: randMatrix(sumN, base), sumB: randMatrix(sumN, base+1),
		sgA: randMatrix(sgemmN, base+2), sgB: randMatrix(sgemmN, base+3),
		sepSrc: randMatrix(visionN, base+4), histSrc: randMatrix(visionN, base+5),
		jacobi: jacobi[(round%len(jacobi)+len(jacobi))%len(jacobi)],
	}
	in.sumWant = make([]float64, sumN*sumN)
	ref.Sum(in.sumA.Data, in.sumB.Data, in.sumWant)
	in.sgWant = make([]float64, sgemmN*sgemmN)
	ref.Sgemm(sgemmN, in.sgA.Data, in.sgB.Data, in.sgWant)

	n2 := visionN * visionN
	t1, t2 := make([]float64, n2), make([]float64, n2)
	ref.GaussBlurX(visionN, visionN, in.sepSrc.Data, t1)
	ref.GaussBlurY(visionN, visionN, t1, t2)
	ref.ScaleBias(1.2, -0.05, t2, t1)
	ref.GammaMap(0.8, t1, t2)
	in.sepWant = t2

	in.histScale, in.histBias = ref.ContrastStretch(in.histSrc.Data)
	stretched := make([]float64, n2)
	ref.ScaleBias(in.histScale, in.histBias, in.histSrc.Data, stretched)
	in.histP0, in.histS = ref.HistEqSpline(stretched, histKnots)
	in.histWant = make([]float64, n2)
	ref.SplineMap(in.histP0, in.histS, stretched, in.histWant)
	return in
}

// dispatchCounters are the engines' cumulative counters.
type dispatchCounters struct {
	elided, shaded, fallback, poolHits, poolMisses int64
}

func (s *dispatchState) counters() dispatchCounters {
	var c dispatchCounters
	for _, e := range s.engines() {
		el, sh := e.CoherenceStats()
		ps := e.TensorPool().Stats()
		c.elided += el
		c.shaded += sh
		c.fallback += e.LaneFallbackDraws()
		c.poolHits += ps.Hits
		c.poolMisses += ps.Misses
	}
	return c
}

// round runs one op and returns the time of its timed parts and the
// number of passes the planner fused. Input generation and the
// reference comparisons are not timed.
func (s *dispatchState) round(tr *tracer, op int, in *roundInputs) (time.Duration, int, error) {
	var timed time.Duration
	root := tr.begin(op, 0, "dispatch.round")
	defer tr.end(root)
	timeIt := func(name string, f func() error) error {
		id := tr.begin(op, root, name)
		start := time.Now()
		err := f()
		timed += time.Since(start)
		tr.end(id)
		return err
	}
	check := func(job string, got, want []float64, tol float64) error {
		if d := ref.MaxAbsDiff(want, got); d > tol {
			return fmt.Errorf("%s: max error %g > %g", job, d, tol)
		}
		return nil
	}

	// sum: codec upload, draw, codec readback.
	if err := timeIt("codec.upload", func() error {
		if err := s.sumA.Upload(in.sumA, true); err != nil {
			return err
		}
		return s.sumB.Upload(in.sumB, true)
	}); err != nil {
		return timed, 0, err
	}
	if err := timeIt("gles.sum_draw", func() error {
		s.sumK.BindInput("text0", 0, s.sumA)
		s.sumK.BindInput("text1", 1, s.sumB)
		err := s.sumK.Dispatch(s.sumC)
		s.sumE.Finish()
		return err
	}); err != nil {
		return timed, 0, err
	}
	var sumOut *codec.Matrix
	if err := timeIt("codec.readback", func() (err error) {
		sumOut, err = s.sumC.Read()
		return err
	}); err != nil {
		return timed, 0, err
	}
	if err := check("sum", sumOut.Data, in.sumWant, sumTol); err != nil {
		return timed, 0, err
	}

	// sgemm on the warm runner.
	var sgOut *codec.Matrix
	if err := timeIt("core.sgemm", func() (err error) {
		if err = s.sgemm.SetInputs(in.sgA, in.sgB); err != nil {
			return err
		}
		if err = s.sgemm.RunOnce(context.Background()); err != nil {
			return err
		}
		s.sgemmE.Finish()
		sgOut, err = s.sgemm.Result()
		return err
	}); err != nil {
		return timed, 0, err
	}
	if err := check("sgemm", sgOut.Data, in.sgWant, sgemmTol); err != nil {
		return timed, 0, err
	}

	// jacobi8 to convergence.
	var iters int
	var state uint64
	if err := timeIt("core.jacobi8", func() (err error) {
		iters, state, err = runJacobi8(s.jacobiE, in.jacobi.init)
		return err
	}); err != nil {
		return timed, 0, err
	}
	if iters != in.jacobi.iters || state != in.jacobi.state {
		return timed, 0, fmt.Errorf("jacobi8: %d iterations, state %#x; want %d, %#x", iters, state, in.jacobi.iters, in.jacobi.state)
	}

	// The two pipelines on fresh images.
	fused := 0
	ext := map[string]*core.Tensor{pipeline.SrcInput: s.src}
	runPlan := func(p *pipeline.Plan, src *codec.Matrix, out string) (*codec.Matrix, error) {
		var m *codec.Matrix
		err := timeIt("pipeline.run", func() error {
			if err := s.src.Upload(src, true); err != nil {
				return err
			}
			st, err := p.Run(ext)
			if err != nil {
				return err
			}
			fused += st.PassesFused
			s.visionE.Finish()
			m, err = p.Output(out).Read()
			return err
		})
		return m, err
	}
	sep, err := runPlan(s.sepconv, in.sepSrc, "gamma")
	if err != nil {
		return timed, fused, err
	}
	if err := check("sepconv", sep.Data, in.sepWant, sepconvTol); err != nil {
		return timed, fused, err
	}
	s32 := make([]float32, len(in.histS))
	for i, v := range in.histS {
		s32[i] = float32(v)
	}
	for _, set := range []error{
		s.histeq.SetFloat("stretch", "scale", float32(in.histScale)),
		s.histeq.SetFloat("stretch", "bias", float32(in.histBias)),
		s.histeq.SetFloat("equalize", "p0", float32(in.histP0)),
		s.histeq.SetFloats("equalize", "s", s32),
	} {
		if set != nil {
			return timed, fused, set
		}
	}
	hist, err := runPlan(s.histeq, in.histSrc, "equalize")
	if err != nil {
		return timed, fused, err
	}
	return timed, fused, check("histeq", hist.Data, in.histWant, histeqTol)
}

func runDispatch(o options) (*outcome, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// Reference jacobi8 runs on a fresh engine, outside the timed set-up.
	jacobi := make([]*jacobiRef, jacobiVariants)
	refE, err := workerEngine(jacobiN)
	if err != nil {
		return nil, err
	}
	for i := range jacobi {
		init := jacobiGrid(i)
		it, st, err := runJacobi8(refE, init)
		if err != nil {
			return nil, fmt.Errorf("jacobi8 reference: %w", err)
		}
		jacobi[i] = &jacobiRef{init: init, iters: it, state: st}
	}
	setupS, s, err := medianSetup(func() (*dispatchState, error) { return setupDispatch(tr, o.seed) }, func(*dispatchState) {})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	// Warm-up: one untimed, verified round primes the plans' fusion.
	if _, _, err := s.round(nil, 0, makeRound(o.seed, -1, jacobi)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	out := &outcome{values: map[string]float64{}}
	var fusedTotal, fusedRounds int
	fusedSeen := map[int]bool{}
	var allocMB, mallocs, gcs float64
	c0 := s.counters()
	plain, traced, failed := closedLoop(o.seconds, 5, o.trace, func(i int, traced bool) (time.Duration, error) {
		in := makeRound(o.seed, i, jacobi)
		var t *tracer
		var mem *memDelta
		if traced {
			t, mem = tr, startMem()
		}
		d, fused, err := s.round(t, i, in)
		if traced {
			a, m, g := mem.stop()
			allocMB, mallocs, gcs = allocMB+a, mallocs+m, gcs+g
			fusedTotal += fused
			fusedRounds++
		}
		fusedSeen[fused] = true
		return d, err
	})
	c1 := s.counters()
	out.attempted, out.failed = len(plain)+len(traced), failed
	out.check(len(fusedSeen) == 1, "pipeline.passes_fused differs between rounds: %v", fusedSeen)
	out.check(c1.fallback == c0.fallback, "%d lane fallback draws", c1.fallback-c0.fallback)
	if !o.trace {
		out.values["setup_s"] = setupS
		out.values["p50_ms"] = median(plain)
		// Too few rounds for a p90: report the slowest round as the tail.
		out.values["p90_ms"] = maxOf(plain)
		out.values["capacity_jobs_s"] = 1000 / mean(plain)
		return out, nil
	}
	rounds := float64(len(traced))
	out.spans = tr.snapshot()
	ops := opSpans(out.spans)
	self := selfTimes(ops)
	v := out.values
	v["codec.upload_ms"] = ms(self["codec.upload"]) / rounds
	v["codec.readback_ms"] = ms(self["codec.readback"]) / rounds
	v["gles.sum_draw_ms"] = ms(self["gles.sum_draw"]) / rounds
	v["core.sgemm_ms"] = ms(self["core.sgemm"]) / rounds
	v["core.jacobi8_ms"] = ms(self["core.jacobi8"]) / rounds
	v["pipeline.run_ms"] = ms(self["pipeline.run"]) / rounds
	v["pipeline.compile_ms"] = ms(totals(out.spans)["pipeline.compile"]) / setupRuns
	v["pipeline.passes_fused"] = float64(fusedTotal) / float64(fusedRounds)
	v["gles.elided_ratio"] = ratio(float64(c1.elided-c0.elided), float64(c1.elided-c0.elided+c1.shaded-c0.shaded))
	v["gles.lane_fallback_draws"] = float64(c1.fallback-c0.fallback) / float64(out.attempted)
	v["core.pool_hit_ratio"] = ratio(float64(c1.poolHits-c0.poolHits), float64(c1.poolHits-c0.poolHits+c1.poolMisses-c0.poolMisses))
	v["go.alloc_mb"], v["go.mallocs"], v["go.gc_cycles"] = allocMB/rounds, mallocs/rounds, gcs/rounds
	v["trace.overhead_pct"] = overheadPct(plain, traced)
	return out, nil
}
