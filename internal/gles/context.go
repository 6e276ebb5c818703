// Package gles implements the OpenGL ES 2.0 subset GPGPU applications use,
// as a functional state machine bound to the timing model in internal/gpu:
// every call both performs the real work (textures hold real bytes, draws
// run the compiled shaders over the rasteriser) and advances virtual time
// the way the modelled driver and hardware would.
//
// The API surface follows the C API closely (names, error model, sticky
// glGetError) so the GPGPU framework in internal/core reads like real
// OpenGL ES client code.
package gles

import (
	"fmt"
	"runtime"

	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/egl"
	"gles2gpgpu/internal/glsl"
	"gles2gpgpu/internal/gpu"
	"gles2gpgpu/internal/mem"
	"gles2gpgpu/internal/shader"
	"gles2gpgpu/internal/shader/analysis"
)

// Enum is a GLenum.
type Enum uint32

// Error codes.
const (
	NO_ERROR                      Enum = 0
	INVALID_ENUM                  Enum = 0x0500
	INVALID_VALUE                 Enum = 0x0501
	INVALID_OPERATION             Enum = 0x0502
	OUT_OF_MEMORY                 Enum = 0x0505
	INVALID_FRAMEBUFFER_OPERATION Enum = 0x0506
)

// Object and parameter enums (values match the GL headers where it helps
// recognisability; exact numbers are otherwise irrelevant to the model).
const (
	TEXTURE_2D            Enum = 0x0DE1
	TEXTURE_MIN_FILTER    Enum = 0x2801
	TEXTURE_MAG_FILTER    Enum = 0x2800
	TEXTURE_WRAP_S        Enum = 0x2802
	TEXTURE_WRAP_T        Enum = 0x2803
	NEAREST               Enum = 0x2600
	LINEAR                Enum = 0x2601
	NEAREST_MIPMAP_LINEAR Enum = 0x2702
	CLAMP_TO_EDGE         Enum = 0x812F
	REPEAT                Enum = 0x2901
	RGBA                  Enum = 0x1908
	RGB                   Enum = 0x1907
	UNSIGNED_BYTE         Enum = 0x1401
	TEXTURE0              Enum = 0x84C0

	ARRAY_BUFFER         Enum = 0x8892
	ELEMENT_ARRAY_BUFFER Enum = 0x8893
	STATIC_DRAW          Enum = 0x88E4
	DYNAMIC_DRAW         Enum = 0x88E8
	STREAM_DRAW          Enum = 0x88E0

	VERTEX_SHADER   Enum = 0x8B31
	FRAGMENT_SHADER Enum = 0x8B30
	COMPILE_STATUS  Enum = 0x8B81
	LINK_STATUS     Enum = 0x8B82

	FRAMEBUFFER                       Enum = 0x8D40
	COLOR_ATTACHMENT0                 Enum = 0x8CE0
	FRAMEBUFFER_COMPLETE              Enum = 0x8CD5
	FRAMEBUFFER_INCOMPLETE_ATTACHMENT Enum = 0x8CD6

	COLOR_BUFFER_BIT Enum = 0x4000

	POINTS         Enum = 0x0000
	TRIANGLES      Enum = 0x0004
	TRIANGLE_STRIP Enum = 0x0005
	TRIANGLE_FAN   Enum = 0x0006

	FLOAT Enum = 0x1406

	BLEND               Enum = 0x0BE2
	ZERO                Enum = 0
	ONE                 Enum = 1
	SRC_ALPHA           Enum = 0x0302
	ONE_MINUS_SRC_ALPHA Enum = 0x0303
)

// MaxVertexAttribs is the attribute slot count (GLES2 minimum).
const MaxVertexAttribs = 8

// MaxTextureUnits is the number of texture units.
const MaxTextureUnits = 8

// Texture is a 2D texture object.
type Texture struct {
	name      uint32
	W, H      int
	data      []byte // RGBA8888, allocated by TexImage2D
	res       gpu.ResID
	alloc     mem.Allocation
	allocated bool

	minFilter, magFilter Enum
	wrapS, wrapT         Enum
}

// Buffer is a VBO.
type Buffer struct {
	name  uint32
	data  []byte
	res   gpu.ResID
	alloc mem.Allocation
	usage Enum
}

// Shader is a shader object.
type Shader struct {
	name       uint32
	stype      Enum
	source     string
	checked    *glsl.CheckedShader
	compiled   *shader.Program
	compileErr error
}

// Program is a linked program object.
type Program struct {
	name    uint32
	vs, fs  *Shader
	linked  bool
	linkErr error

	vsProg, fsProg *shader.Program
	// Uniform state lives in the program object, per the GL spec.
	vsUniforms []shader.Vec4
	fsUniforms []shader.Vec4
	// samplerUnits[i] is the texture unit bound to fragment sampler slot i.
	samplerUnits []int
	// uniform locations: 1-based index into locs.
	locs []uniformLoc
	// varyingMap maps fragment input register -> vertex output register
	// (-1: filled from gl_FragCoord or zero).
	varyingMap    []int
	fragCoordReg  int // fs input register of gl_FragCoord, -1 if unused
	pointCoordReg int // fs input register of gl_PointCoord, -1 if unused
	attribs       []shader.VarInfo
	// lanes is the fragment program's lane form, built by the first draw
	// that shades the program (see laneFormFor); linking clears it.
	lanes *laneForm
}

type uniformLoc struct {
	name       string
	typ        glsl.Type
	vsReg      int // -1 when absent in that stage
	fsReg      int
	regs       int
	samplerIdx int // fragment sampler slot, -1 otherwise
}

type attribState struct {
	enabled bool
	size    int // components 1..4
	// Either a client-side array (clientData) or a VBO reference.
	clientData  []float32
	buffer      uint32
	offsetBytes int
	strideBytes int
}

// drawStats caches measured per-draw work for timing-only replay.
type drawStats struct {
	fragments  int64
	cycles     int64
	texFetches int64
	valid      bool
}

// Context is an OpenGL ES 2.0 context bound to an EGL context.
type Context struct {
	eglCtx *egl.Context
	m      *gpu.Machine
	prof   *device.Profile

	errCode Enum // sticky, returned by GetError

	textures     map[uint32]*Texture
	buffers      map[uint32]*Buffer
	framebuffers map[uint32]*Framebuffer
	shaders      map[uint32]*Shader
	programs     map[uint32]*Program
	nextName     uint32

	activeTexture int
	boundTex      [MaxTextureUnits]uint32
	boundArray    uint32
	boundFB       uint32
	current       uint32
	attribs       [MaxVertexAttribs]attribState
	viewport      [4]int
	clearColor    [4]float32
	colorMask     [4]bool
	blendEnabled  bool
	blendSrc      Enum
	blendDst      Enum

	alloc *mem.Allocator

	// timingOnly replays driver/GPU timing without functional execution,
	// reusing the last measured draw stats (see SetTimingOnly).
	timingOnly bool
	statCache  map[statKey]drawStats

	// functionalOnly is the complement of timingOnly: functional execution
	// (shader VM, rasterisation, pixel stores) proceeds normally, but no
	// virtual time elapses and no work reaches the timing model (see
	// SetFunctionalOnly).
	functionalOnly bool

	// scratch VM environments, reused across draws.
	vsEnv, fsEnv *shader.Env
	envProg      *Program

	// Host-parallel fragment shading (see parallel.go): worker count and
	// lazily started worker pool.
	workers int
	pool    *workerPool

	// interpOnly forces every draw onto the per-fragment interpreter loop.
	// Tests set it to obtain the oracle the fast path is compared against.
	interpOnly bool

	// laneFallbackDraws counts draws whose fragment program has no lane
	// form and therefore shade on the per-fragment interpreter — the
	// fast-path adoption signal exported by the daemon as
	// gles2gpgpud_lane_fallback_draws_total.
	laneFallbackDraws int64

	// coherence selects the cross-iteration tile-coherence engine (see
	// coherence.go): eligible draws cache each tile's sampled-texel
	// footprint and output bytes, and a later draw with the same signature
	// replays tiles whose inputs are unchanged instead of re-shading them.
	// Framebuffer bytes and Cycles/TexFetches are bit-identical either way
	// (elided tiles contribute their cached modelled cost); only host
	// wall-clock time changes. The CoherenceElided/CoherenceShaded counters
	// report the win.
	coherence bool
	cohCache  map[cohKey]*cohDraw
	cohGen    uint64
	cohBytes  int
	cohElided int64
	cohShaded int64
	// footCache memoises the per-program footprint analysis.
	footCache map[*shader.Program]*analysis.Footprint

	// progCache memoises shader compilation by (stage, source hash) so
	// multi-pass kernels that rebuild identical programs every pass (the
	// reduction ladder, sgemm's per-level shaders) compile once per
	// context. Evicted by Destroy.
	progCache map[shaderCacheKey]shaderCacheEntry

	// sharedCache, when attached, memoises compilations across contexts
	// (one per device worker pool in the serving layer). Consulted before
	// progCache; see SharedProgramCache for the sharing conditions.
	sharedCache *SharedProgramCache
}

// Framebuffer is a framebuffer object with a colour attachment.
type Framebuffer struct {
	name     uint32
	colorTex uint32
}

type statKey struct {
	program uint32
	w, h    int
}

// NewContext creates a GLES2 context on an EGL context.
func NewContext(ec *egl.Context) *Context {
	prof := ec.Disp.Profile()
	c := &Context{
		eglCtx:       ec,
		m:            ec.Disp.Machine,
		prof:         prof,
		textures:     make(map[uint32]*Texture),
		buffers:      make(map[uint32]*Buffer),
		framebuffers: make(map[uint32]*Framebuffer),
		shaders:      make(map[uint32]*Shader),
		programs:     make(map[uint32]*Program),
		alloc:        mem.NewAllocator(prof.TexAlloc),
		statCache:    make(map[statKey]drawStats),
		progCache:    make(map[shaderCacheKey]shaderCacheEntry),
		workers:      runtime.GOMAXPROCS(0),
		coherence:    true,
		cohCache:     make(map[cohKey]*cohDraw),
	}
	c.colorMask = [4]bool{true, true, true, true}
	c.blendSrc, c.blendDst = ONE, ZERO
	if s := ec.Draw; s != nil {
		c.viewport = [4]int{0, 0, s.W, s.H}
	}
	return c
}

// Destroy releases host-side resources owned by the context: the shading
// worker pool, the compiled-program cache and pooled VM environments. The
// context must not be used for draws afterwards (a later draw would
// lazily restart the pool, but callers should treat Destroy as final).
func (c *Context) Destroy() {
	if c.pool != nil {
		c.pool.shutdown()
		c.pool = nil
	}
	c.progCache = make(map[shaderCacheKey]shaderCacheEntry)
	for _, p := range c.programs {
		p.lanes = nil
	}
	c.cohCache = make(map[cohKey]*cohDraw)
	c.cohBytes = 0
}

// Machine exposes the timing model (for harnesses and tests).
func (c *Context) Machine() *gpu.Machine { return c.m }

// Profile returns the device profile.
func (c *Context) Profile() *device.Profile { return c.prof }

// Allocator exposes GPU-memory bookkeeping.
func (c *Context) Allocator() *mem.Allocator { return c.alloc }

// EGL returns the underlying EGL context.
func (c *Context) EGL() *egl.Context { return c.eglCtx }

// SetTimingOnly toggles replay mode: functional execution (shader VM,
// rasterisation, pixel copies) is skipped and the last measured work
// amounts are resubmitted to the timing model. Use after one functional
// iteration to simulate the paper's 10 000-repetition methodology without
// 10 000 VM sweeps; the per-fragment cost of these kernels is
// data-independent, so the replayed timing is exact.
func (c *Context) SetTimingOnly(on bool) { c.timingOnly = on }

// TimingOnly reports the replay-mode state.
func (c *Context) TimingOnly() bool { return c.timingOnly }

// SetFunctionalOnly toggles functional-only mode, the complement of
// SetTimingOnly: API calls execute their functional effects (compilation,
// uploads, shading, pixel stores) but advance no virtual time and submit no
// work to the timing model. The pipeline planner uses this to execute a
// fused pass graph for its bytes after separately replaying the unfused
// call sequence for its timing, keeping fused runs bit-identical to
// unfused ones in both outputs and virtual-time figures.
func (c *Context) SetFunctionalOnly(on bool) { c.functionalOnly = on }

// FunctionalOnly reports the functional-only-mode state.
func (c *Context) FunctionalOnly() bool { return c.functionalOnly }

// LaneFallbackDraws returns the number of draws whose fragment program
// failed lane and mask eligibility and therefore shaded per-fragment on
// the reference interpreter.
func (c *Context) LaneFallbackDraws() int64 { return c.laneFallbackDraws }

// SetCoherence selects the cross-iteration tile-coherence engine for
// eligible draws: tiles of a repeated draw whose sampled inputs are
// byte-identical to the previous iteration replay their cached output
// bytes instead of re-shading (see coherence.go). Framebuffer bytes,
// Cycles/TexFetches and every virtual-time figure are bit-identical either
// way — elided tiles still contribute their cached modelled cost. It is on
// by default and exists for tests, which turn it off to get the re-shading
// reference. Turning it off also drops the cached snapshots.
func (c *Context) SetCoherence(on bool) {
	c.coherence = on
	if !on {
		c.cohCache = make(map[cohKey]*cohDraw)
		c.cohBytes = 0
	}
}

// setErr records the first error since the last GetError.
func (c *Context) setErr(e Enum) {
	if c.errCode == NO_ERROR {
		c.errCode = e
	}
}

// GetError returns and clears the sticky error, like glGetError.
func (c *Context) GetError() Enum {
	e := c.errCode
	c.errCode = NO_ERROR
	return e
}

// ErrName renders an error code.
func ErrName(e Enum) string {
	switch e {
	case NO_ERROR:
		return "NO_ERROR"
	case INVALID_ENUM:
		return "INVALID_ENUM"
	case INVALID_VALUE:
		return "INVALID_VALUE"
	case INVALID_OPERATION:
		return "INVALID_OPERATION"
	case OUT_OF_MEMORY:
		return "OUT_OF_MEMORY"
	case INVALID_FRAMEBUFFER_OPERATION:
		return "INVALID_FRAMEBUFFER_OPERATION"
	}
	return fmt.Sprintf("0x%04X", uint32(e))
}

func (c *Context) apiCost() {
	if c.functionalOnly {
		return
	}
	c.m.CPU.Advance(c.prof.APICallCost)
}

func (c *Context) genName() uint32 {
	c.nextName++
	return c.nextName
}

// ActiveTexture selects the active texture unit.
func (c *Context) ActiveTexture(unit Enum) {
	c.apiCost()
	idx := int(unit - TEXTURE0)
	if idx < 0 || idx >= MaxTextureUnits {
		c.setErr(INVALID_ENUM)
		return
	}
	c.activeTexture = idx
}

// Viewport sets the viewport transform.
func (c *Context) Viewport(x, y, w, h int) {
	c.apiCost()
	if w < 0 || h < 0 {
		c.setErr(INVALID_VALUE)
		return
	}
	c.viewport = [4]int{x, y, w, h}
}

// ClearColor sets the clear colour.
func (c *Context) ClearColor(r, g, b, a float32) {
	c.apiCost()
	c.clearColor = [4]float32{clamp01(r), clamp01(g), clamp01(b), clamp01(a)}
}

func clamp01(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Enable turns on a capability (only BLEND in this subset).
func (c *Context) Enable(cap Enum) {
	c.apiCost()
	if cap != BLEND {
		c.setErr(INVALID_ENUM)
		return
	}
	c.blendEnabled = true
}

// Disable turns off a capability.
func (c *Context) Disable(cap Enum) {
	c.apiCost()
	if cap != BLEND {
		c.setErr(INVALID_ENUM)
		return
	}
	c.blendEnabled = false
}

// BlendFunc sets the blend factors. The subset supports ZERO, ONE,
// SRC_ALPHA and ONE_MINUS_SRC_ALPHA — enough for additive accumulation
// (the GPGPU scatter-add idiom: glBlendFunc(GL_ONE, GL_ONE)) and classic
// alpha compositing.
func (c *Context) BlendFunc(src, dst Enum) {
	c.apiCost()
	for _, f := range []Enum{src, dst} {
		switch f {
		case ZERO, ONE, SRC_ALPHA, ONE_MINUS_SRC_ALPHA:
		default:
			c.setErr(INVALID_ENUM)
			return
		}
	}
	c.blendSrc, c.blendDst = src, dst
}

// blendFactor evaluates a blend factor for the given source colour.
func blendFactor(f Enum, src [4]float32, ch int) float32 {
	switch f {
	case ZERO:
		return 0
	case SRC_ALPHA:
		return src[3]
	case ONE_MINUS_SRC_ALPHA:
		return 1 - src[3]
	}
	return 1 // ONE
}

// Finish drains all submitted work (glFinish).
func (c *Context) Finish() {
	c.apiCost()
	c.m.WaitAll()
}

// Flush is a no-op in this model (submission is immediate).
func (c *Context) Flush() { c.apiCost() }

// GetString returns implementation strings.
func (c *Context) GetString(name Enum) string {
	switch name {
	case 0x1F00: // VENDOR
		return "gles2gpgpu simulator"
	case 0x1F01: // RENDERER
		return c.prof.Name
	case 0x1F02: // VERSION
		return "OpenGL ES 2.0 (simulated)"
	case 0x8B8C: // SHADING_LANGUAGE_VERSION
		return "OpenGL ES GLSL ES 1.00 (simulated)"
	case 0x1F03: // EXTENSIONS
		return "GL_EXT_discard_framebuffer GL_EXT_mul24"
	}
	c.setErr(INVALID_ENUM)
	return ""
}
