// Package core is the paper's primary contribution as a library: a
// general-purpose-compute framework on top of OpenGL ES 2.0 for low-end
// mobile GPUs, exposing every implementation choice the paper evaluates as
// an explicit option:
//
//   - SwapMode — eglSwapBuffers with vsync (the ES2-best-practices
//     baseline), with eglSwapInterval(0), or no swap at all (Fig. 3).
//   - RenderTarget — default framebuffer + glCopyTexImage2D versus direct
//     FBO texture rendering (Fig. 4a).
//   - Blocking — the multi-pass blocked sgemm of §III/§IV (Fig. 4b).
//   - Texture reuse — glTexSubImage2D / glCopyTexSubImage2D instead of
//     fresh allocations (Fig. 5).
//   - VBO usage hints versus client-side arrays (§V-B text).
//   - Kernel code — fp24 encoding with mul24 and 3-byte I/O (Fig. 3).
//
// The framework runs on the simulated GLES2 stack: results are numerically
// real (validated against internal/ref) and timing comes from the TBDR
// machine model.
package core

import (
	"fmt"

	"gles2gpgpu/internal/codec"
	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/egl"
	"gles2gpgpu/internal/gles"
	"gles2gpgpu/internal/gpu"
	"gles2gpgpu/internal/kernels"
	"gles2gpgpu/internal/timing"
)

// SwapMode selects the windowing-system synchronisation behaviour.
type SwapMode int

// Swap modes (paper §II "Windowing Subsystem properties").
const (
	// SwapVsync calls eglSwapBuffers each iteration with the device's
	// default swap interval — the best-practices baseline.
	SwapVsync SwapMode = iota
	// SwapNoVsync calls eglSwapBuffers with eglSwapInterval(0).
	SwapNoVsync
	// SwapNone never presents: the maximum kernel-launch rate for
	// applications without visual output.
	SwapNone
)

func (s SwapMode) String() string {
	switch s {
	case SwapVsync:
		return "swap+vsync"
	case SwapNoVsync:
		return "swap-interval0"
	}
	return "no-swap"
}

// RenderTarget selects where kernels render.
type RenderTarget int

// Render targets (paper §II "Texture Writing").
const (
	// TargetFramebuffer renders to the default (double-buffered, window)
	// framebuffer and copies results out with glCopyTexImage2D.
	TargetFramebuffer RenderTarget = iota
	// TargetTexture renders directly into textures through an FBO.
	TargetTexture
)

func (r RenderTarget) String() string {
	if r == TargetTexture {
		return "texture"
	}
	return "framebuffer"
}

// Config selects the implementation variant of the framework.
type Config struct {
	// Device is the platform profile; required.
	Device *device.Profile
	// Width and Height are the kernel grid dimensions (one fragment per
	// output element).
	Width, Height int

	Swap   SwapMode
	Target RenderTarget

	// ReuseInputTextures uploads per-iteration inputs with
	// glTexSubImage2D into live storage instead of re-allocating with
	// glTexImage2D (Fig. 5 "input textures").
	ReuseInputTextures bool
	// ReuseOutputTextures copies framebuffer results with
	// glCopyTexSubImage2D instead of glCopyTexImage2D (Fig. 5 "output").
	ReuseOutputTextures bool
	// StreamInputs re-uploads the input matrices every iteration
	// (the texture-loading workload of Fig. 5); when false inputs are
	// uploaded once and stay resident.
	StreamInputs bool

	// UseVBO sources the full-screen quad from a vertex buffer object;
	// otherwise client-side arrays pay the per-draw copy (§II Vertex
	// Processing).
	UseVBO bool
	// VBOUsage is the BufferData usage hint.
	VBOUsage gles.Enum

	// Kernel selects the kernel-code options (fp24 encoding, mul24).
	Kernel kernels.Options

	// InvalidateTarget issues glClear before each kernel launch so the
	// tile engine skips the previous-contents readback (§II, step 6 in
	// Fig. 1). Defaults to true in NewEngine's normalisation: GPGPU
	// kernels overwrite every pixel.
	InvalidateTarget *bool
	// UseDiscardExtension invalidates with EXT_discard_framebuffer
	// instead of glClear — the alternative the paper names for
	// architectures exposing the extension. Identical timing effect,
	// without the functional fill.
	UseDiscardExtension bool

	// ArtificialDependency makes each kernel additionally sample the
	// previous iteration's output (the Fig. 4a dependency experiment).
	ArtificialDependency bool

	// Workers is the host-side fragment-shading worker count: how many OS
	// threads the simulator spreads functional shading over. It changes
	// host wall-clock time only — virtual-time results, framebuffer
	// contents and cycle counters are bit-identical at any setting (see
	// internal/gles/parallel.go). 0 means GOMAXPROCS; 1 forces serial
	// shading. It is the only host-execution setting: every other host
	// path (tile coherence, pass fusion, the quad fast path) is always
	// on, and its reference path is reachable only from tests.
	Workers int

	// ProgramCache, when non-nil, shares compiled shaders across engines:
	// a serving worker pool attaches one cache per device so each kernel
	// compiles once per pool instead of once per engine. All engines
	// sharing a cache must use devices with equal Limits, the only device
	// input left in a compiled program (see gles.SharedProgramCache).
	ProgramCache *gles.SharedProgramCache

	// TensorPoolBytes, when positive, enables the engine's tensor
	// residency pool with that byte budget: NewTensor recycles released
	// texture allocations of matching shape, and re-uploads into recycled
	// storage take the glTexSubImage2D path — the paper's Fig. 5 reuse
	// optimisation applied across jobs instead of across iterations.
	// Results are bit-identical with the pool on or off; only allocation
	// work (and therefore virtual time) changes. See TensorPool.
	TensorPoolBytes int
}

func boolPtr(b bool) *bool { return &b }

// Engine owns the EGL/GLES stack for one configuration.
type Engine struct {
	cfg  Config
	disp *egl.Display
	surf *egl.Surface
	ectx *egl.Context
	gl   *gles.Context

	quadVBO  uint32
	fbo      uint32 // render-to-texture FBO
	readFBO  uint32 // texture readback FBO
	vsSource string

	scratchBuf []byte // reused dummy payload for timing-only uploads

	// pool is the tensor residency pool (nil unless Config.TensorPoolBytes
	// is positive or EnableTensorPool was called).
	pool *TensorPool
	// kernelCache memoises BuildKernel by fragment source for long-lived
	// engines that rebuild the same workloads across jobs.
	kernelCache map[string]*Kernel
}

// scratch returns a reusable byte buffer of length n.
func (e *Engine) scratch(n int) []byte {
	if cap(e.scratchBuf) < n {
		e.scratchBuf = make([]byte, n)
	}
	return e.scratchBuf[:n]
}

// NewEngine builds the stack for cfg and compiles the shared quad vertex
// shader.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Device == nil {
		return nil, fmt.Errorf("core: Config.Device is required")
	}
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("core: invalid grid %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.VBOUsage == 0 {
		cfg.VBOUsage = gles.STATIC_DRAW
	}
	if cfg.Kernel.Depth == 0 {
		cfg.Kernel.Depth = codec.Depth32
	}
	if cfg.InvalidateTarget == nil {
		cfg.InvalidateTarget = boolPtr(true)
	}
	e := &Engine{cfg: cfg}
	e.disp = egl.GetDisplay(cfg.Device)
	e.disp.Initialize()
	var err error
	e.surf, err = e.disp.CreateWindowSurface(cfg.Width, cfg.Height)
	if err != nil {
		return nil, err
	}
	e.ectx, err = e.disp.CreateContext()
	if err != nil {
		return nil, err
	}
	if err := e.ectx.MakeCurrent(e.surf); err != nil {
		return nil, err
	}
	if cfg.Swap == SwapNoVsync {
		if err := e.ectx.SwapInterval(0); err != nil {
			return nil, err
		}
	}
	e.gl = gles.NewContext(e.ectx)
	if cfg.Workers != 0 {
		e.gl.SetWorkers(cfg.Workers)
	}
	if cfg.ProgramCache != nil {
		e.gl.SetSharedProgramCache(cfg.ProgramCache)
	}
	if cfg.TensorPoolBytes > 0 {
		e.EnableTensorPool(cfg.TensorPoolBytes)
	}
	e.gl.Viewport(0, 0, cfg.Width, cfg.Height)
	e.vsSource = kernels.VertexShader

	if cfg.UseVBO {
		e.quadVBO = e.gl.GenBuffer()
		e.gl.BindBuffer(gles.ARRAY_BUFFER, e.quadVBO)
		e.gl.BufferData(gles.ARRAY_BUFFER, gles.Float32Bytes(kernels.QuadVertices), cfg.VBOUsage)
	}
	e.fbo = e.gl.GenFramebuffer()
	e.readFBO = e.gl.GenFramebuffer()
	if err := e.glErr("engine setup"); err != nil {
		return nil, err
	}
	return e, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// GL exposes the GLES context.
func (e *Engine) GL() *gles.Context { return e.gl }

// Machine exposes the timing model.
func (e *Engine) Machine() *gpu.Machine { return e.gl.Machine() }

// CoherenceStats reports how many tiles the cross-iteration coherence
// cache elided versus shaded since the engine was created.
func (e *Engine) CoherenceStats() (elided, shaded int64) { return e.gl.CoherenceStats() }

// LaneFallbackDraws reports how many draws wanted lane-batched shading but
// ran per-fragment because the program failed lane eligibility — the
// lane-engine adoption signal the daemon exports per device.
func (e *Engine) LaneFallbackDraws() int64 { return e.gl.LaneFallbackDraws() }

// Now returns the virtual CPU time.
func (e *Engine) Now() timing.Time { return e.Machine().Now() }

// Snapshot is the engine's timing state at an iteration boundary, for
// steady-state extrapolation: the machine's snapshot plus the EGL
// back-buffer index, the engine state that alternates between iterations
// and decides which surface buffer a framebuffer-target draw renders to.
// Runner state is not included: callers compare boundaries at which their
// runner's own state repeats (see SumRunner and SgemmRunner).
type Snapshot struct {
	machine gpu.Snapshot
	back    int
}

// Snapshot captures the engine's timing state (see gpu.Machine.Snapshot).
func (e *Engine) Snapshot() Snapshot {
	// Only presentation waits on vsync ticks (egl.Context.SwapBuffers).
	vsync := e.cfg.Swap != SwapNone && e.ectx.SwapIntervalValue() > 0
	return Snapshot{machine: e.Machine().Snapshot(vsync), back: e.surf.Back()}
}

// Now is the virtual CPU time at the snapshot.
func (s Snapshot) Now() timing.Time { return s.machine.Now() }

// Repeats reports whether s and o hold the same timing state up to an
// offset of virtual time.
func (s Snapshot) Repeats(o Snapshot) bool {
	return s.back == o.back && s.machine.Repeats(o.machine)
}

// Shift skips k periods of the iterations between from and to, leaving
// the engine as if they had run (see gpu.Machine.Shift). The engine must
// be in state to.
func (e *Engine) Shift(k int64, from, to Snapshot) error {
	if from.back != to.back || e.surf.Back() != to.back {
		return fmt.Errorf("core: shift across different back buffers")
	}
	return e.Machine().Shift(k, from.machine, to.machine)
}

// SetTimingOnly switches the underlying GL into timing-replay mode (see
// gles.Context.SetTimingOnly).
func (e *Engine) SetTimingOnly(on bool) { e.gl.SetTimingOnly(on) }

// SetFunctionalOnly switches the underlying GL into functional-only mode
// (see gles.Context.SetFunctionalOnly): calls execute their functional
// effects but advance no virtual time. The pipeline planner brackets the
// functional half of a fused run with this.
func (e *Engine) SetFunctionalOnly(on bool) { e.gl.SetFunctionalOnly(on) }

// Finish drains all outstanding GPU work.
func (e *Engine) Finish() { e.gl.Finish() }

func (e *Engine) glErr(what string) error {
	if code := e.gl.GetError(); code != gles.NO_ERROR {
		return fmt.Errorf("core: %s: GL error %s", what, gles.ErrName(code))
	}
	return nil
}

// bindQuad points attribute 0 at the quad, via VBO or client array.
func (e *Engine) bindQuad(posLoc int) {
	e.gl.EnableVertexAttribArray(posLoc)
	if e.cfg.UseVBO {
		e.gl.BindBuffer(gles.ARRAY_BUFFER, e.quadVBO)
		e.gl.VertexAttribPointer(posLoc, 2, gles.FLOAT, 0, 0)
	} else {
		e.gl.VertexAttribPointerClient(posLoc, 2, kernels.QuadVertices, 0, 0)
	}
}

// swapPerMode performs the end-of-iteration windowing synchronisation.
func (e *Engine) swapPerMode() error {
	if e.cfg.Swap == SwapNone {
		return nil
	}
	return e.ectx.SwapBuffers()
}
