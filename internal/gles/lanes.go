package gles

// Lane-batched fragment shading: the gather/scatter bridge between the
// rasteriser's per-fragment callbacks and the SoA lane engine in
// internal/shader/lanes.go.
//
// A laneShader buffers up to W covered fragments (their varyings packed
// into the SoA input banks, their pixel coordinates remembered), runs the
// whole batch through the lane-compiled program, then scatters the outputs
// back through writePixel IN GATHER ORDER. That ordering is what preserves
// bit-identity with per-fragment execution:
//
//   - Shading never reads the framebuffer, so deferring a fragment's
//     writePixel until its batch flushes cannot change what it computes.
//   - Blending reads the destination pixel at scatter time. Scattering in
//     gather order means every pixel's sequence of blend reads/writes is
//     exactly the per-fragment sequence — including two fragments of the
//     same pixel landing in one batch (both shade independently, then
//     blend in submission order at flush).
//   - A batch may therefore span triangles and tiles within one worker's
//     walk: the walk already visits fragments in the order the serial
//     engine would for each pixel, and flushing preserves it.
//
// Admission is shader.LaneFallbackAt, the rule glslint reports too: the
// WritesBeforeReads + OutputsAlwaysWritten proofs (pooled LaneEnvs carry
// stale register lanes between batches and draws, and the tiled walk
// reorders fragments across pixels), then forward-only control flow.
// Straight-line kernels run as one segment, branchy or discarding ones
// (jacobi) with per-lane resume points, and the per-fragment interpreter
// runs the rest. A batch can discard individual lanes, so flush consults
// LaneEnv.Discarded before scattering.

import (
	"gles2gpgpu/internal/shader"
)

// laneForm is a linked program's fragment shader compiled for the lane
// engine, with the pool of LaneEnvs its draws' workers batch through. A
// laneForm with a nil lc records that LaneFallbackAt rejected the program.
type laneForm struct {
	lc   *shader.LaneCompiled
	pool *shader.LaneEnvPool
}

// laneFormFor returns the lane form p's draws shade on, or nil when p has
// none and its draws run on the per-fragment interpreter. The form is
// built by the first draw that shades p and kept until p is relinked:
// timing-only engines link programs they never shade, so nothing is built
// at link time.
func laneFormFor(p *Program) *laneForm {
	if p.lanes == nil {
		p.lanes = &laneForm{}
		if pc, _ := shader.LaneFallbackAt(p.fsProg); pc < 0 {
			p.lanes.lc = shader.CompileLanes(p.fsProg, shader.LaneWidth)
			p.lanes.pool = shader.NewLaneEnvPool(p.fsProg, shader.LaneWidth)
		}
	}
	if p.lanes.lc == nil {
		return nil
	}
	return p.lanes
}

// laneShader batches one worker's fragments through the lane engine.
// Fields are resolved once per draw so the per-fragment add path touches
// no maps and allocates nothing.
type laneShader struct {
	c    *Context
	lc   *shader.LaneCompiled
	env  *shader.LaneEnv
	pool *shader.LaneEnvPool

	n int // gathered lanes in the current batch

	// Remembered scatter coordinates for the gathered lanes.
	px, py [shader.LaneWidth]int32

	pixels []byte
	tgtW   int
	outReg int
	hasOut bool
	mask   [4]bool
	fcReg  int

	frags                 int64
	startCycles, startTex int64

	// onWrite, when set, observes every scattered (non-discarded) pixel
	// write; the coherence recorder uses it to set per-tile cover bits at
	// scatter time so discarded lanes leave their pixels uncovered.
	onWrite func(px, py int32)
}

// newLaneShader prepares one worker's batcher for a draw: a pooled LaneEnv
// with the draw's uniforms broadcast across lanes and the samplers
// installed, plus the scatter state (target, gl_FragColor register, colour
// mask) resolved once.
func (c *Context) newLaneShader(lf *laneForm, p *Program, tgt renderTarget, texFns []shader.TexFunc, sample shader.SampleFunc) *laneShader {
	env := lf.pool.Get()
	env.SetUniforms(p.fsUniforms)
	env.Sample = sample
	env.Samplers = texFns
	out, hasOut := p.fsProg.LookupOutput("gl_FragColor")
	return &laneShader{
		c:           c,
		lc:          lf.lc,
		env:         env,
		pool:        lf.pool,
		pixels:      tgt.pixels,
		tgtW:        tgt.w,
		outReg:      out.Reg,
		hasOut:      hasOut,
		mask:        c.colorMask,
		fcReg:       p.fragCoordReg,
		startCycles: env.Cycles,
		startTex:    env.TexFetches,
	}
}

// add gathers one covered fragment into the current batch, flushing when
// the batch reaches the lane width. Varyings are copied into the SoA banks
// immediately — the rasteriser reuses its callback slice.
func (ls *laneShader) add(px, py int, fc shader.Vec4, varyings []shader.Vec4) {
	lane := ls.n
	env := ls.env
	for reg, v := range varyings {
		env.SetInput(lane, reg, v)
	}
	if ls.fcReg >= 0 {
		env.SetInput(lane, ls.fcReg, fc)
	}
	ls.px[lane] = int32(px)
	ls.py[lane] = int32(py)
	ls.n++
	if ls.n == shader.LaneWidth {
		ls.flush()
	}
}

// flush runs the gathered lanes as one batch and scatters the outputs in
// gather order (see the ordering argument in the file comment).
func (ls *laneShader) flush() {
	n := ls.n
	if n == 0 {
		return
	}
	ls.n = 0
	env := ls.env
	env.N = n
	ls.lc.Run(env)
	ls.frags += int64(n)
	if !ls.hasOut {
		return
	}
	for l := 0; l < n; l++ {
		if env.Discarded[l] {
			continue // the lane executed a KIL: no pixel write
		}
		col := env.Output(l, ls.outReg)
		off := (int(ls.py[l])*ls.tgtW + int(ls.px[l])) * 4
		ls.c.writePixel(ls.pixels, off, col, ls.mask)
		if ls.onWrite != nil {
			ls.onWrite(ls.px[l], ls.py[l])
		}
	}
}

// finish flushes the partial final batch, returns the worker's share of
// the draw measurement, and puts the LaneEnv back in its pool.
func (ls *laneShader) finish() shadeStats {
	ls.flush()
	st := shadeStats{
		fragments:  ls.frags,
		cycles:     ls.env.Cycles - ls.startCycles,
		texFetches: ls.env.TexFetches - ls.startTex,
	}
	ls.pool.Put(ls.env)
	ls.env = nil
	return st
}
