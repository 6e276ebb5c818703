// Package egl implements the windowing-system interface of the simulator:
// displays, double-buffered window surfaces, pbuffer surfaces, contexts,
// and the eglSwapBuffers / eglSwapInterval synchronisation semantics whose
// performance impact the paper's Fig. 3 quantifies.
package egl

import (
	"errors"
	"fmt"

	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/gpu"
)

// Errors mirroring the EGL error model.
var (
	ErrNotInitialized = errors.New("egl: display not initialized")
	ErrBadSurface     = errors.New("egl: bad surface")
	ErrBadParameter   = errors.New("egl: bad parameter")
)

// Display owns the simulated device: one Display per device profile, like
// EGL_DEFAULT_DISPLAY on a real board.
type Display struct {
	Machine     *gpu.Machine
	prof        *device.Profile
	initialized bool
}

// GetDisplay creates the display for a device profile (the analogue of
// eglGetDisplay(EGL_DEFAULT_DISPLAY) on that board).
func GetDisplay(prof *device.Profile) *Display {
	return &Display{Machine: gpu.New(prof), prof: prof}
}

// Initialize brings the display up and returns the EGL version.
func (d *Display) Initialize() (major, minor int) {
	d.initialized = true
	return 1, 4
}

// Initialized reports whether Initialize has been called.
func (d *Display) Initialized() bool { return d.initialized }

// Profile returns the device profile backing the display.
func (d *Display) Profile() *device.Profile { return d.prof }

// Terminate shuts the display down.
func (d *Display) Terminate() { d.initialized = false }

// Surface is a rendering destination. Window surfaces are double-buffered
// (the property the paper's multi-pass framebuffer rendering exploits);
// pbuffers are single-buffered offscreen surfaces.
type Surface struct {
	Disp   *Display
	W, H   int
	window bool

	// bufRes are the scheduling handles of the colour buffers; pixels are
	// the functional backing stores (RGBA8888), allocated on first use so
	// timing-only replays never pay for them.
	bufRes [2]gpu.ResID
	pixels [2][]byte
	back   int
	swaps  int64
}

// CreateWindowSurface creates a double-buffered on-screen surface.
func (d *Display) CreateWindowSurface(w, h int) (*Surface, error) {
	return d.createSurface(w, h, true)
}

// CreatePbufferSurface creates a single-buffered offscreen surface.
func (d *Display) CreatePbufferSurface(w, h int) (*Surface, error) {
	return d.createSurface(w, h, false)
}

func (d *Display) createSurface(w, h int, window bool) (*Surface, error) {
	if !d.initialized {
		return nil, ErrNotInitialized
	}
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("%w: surface size %dx%d", ErrBadParameter, w, h)
	}
	s := &Surface{Disp: d, W: w, H: h, window: window}
	n := 1
	if window {
		n = 2
	}
	for i := 0; i < n; i++ {
		s.bufRes[i] = d.Machine.NewResource(fmt.Sprintf("surface%dx%d.buf%d", w, h, i))
	}
	if !window {
		s.bufRes[1] = s.bufRes[0]
	}
	return s, nil
}

// IsWindow reports whether the surface is an on-screen (double-buffered)
// window surface.
func (s *Surface) IsWindow() bool { return s.window }

// BackRes returns the scheduling handle of the current back buffer (the
// render target).
func (s *Surface) BackRes() gpu.ResID { return s.bufRes[s.back] }

// Back returns the index of the current back buffer (0 or 1; always 0 for
// a pbuffer).
func (s *Surface) Back() int { return s.back }

// BackPixels returns the functional pixel store of the current back buffer.
func (s *Surface) BackPixels() []byte { return s.store(s.back) }

// FrontRes returns the displayed buffer's handle.
func (s *Surface) FrontRes() gpu.ResID { return s.bufRes[1-s.back] }

// store returns buffer i's pixel store, allocating it on first use. A
// pbuffer's two views share buffer 0.
func (s *Surface) store(i int) []byte {
	if !s.window {
		i = 0
	}
	if s.pixels[i] == nil {
		s.pixels[i] = make([]byte, s.W*s.H*4)
	}
	return s.pixels[i]
}

// Swaps reports how many times the surface has been presented.
func (s *Surface) Swaps() int64 { return s.swaps }

// Context is an EGL rendering context. The GLES layer stores its state
// machine on top of one.
type Context struct {
	Disp         *Display
	Draw         *Surface
	swapInterval int
}

// CreateContext returns a context with the device's default swap interval.
func (d *Display) CreateContext() (*Context, error) {
	if !d.initialized {
		return nil, ErrNotInitialized
	}
	return &Context{Disp: d, swapInterval: d.prof.DefaultSwapInterval}, nil
}

// MakeCurrent binds a draw surface to the context.
func (c *Context) MakeCurrent(draw *Surface) error {
	if draw == nil {
		return ErrBadSurface
	}
	if draw.Disp != c.Disp {
		return fmt.Errorf("%w: surface belongs to a different display", ErrBadSurface)
	}
	c.Draw = draw
	return nil
}

// SwapInterval sets the minimum number of vsync periods per buffer swap.
// Zero decouples presentation from the display refresh (the paper's first
// optimisation: on VideoCore the default interval of 1 gates every kernel
// launch at 60 Hz).
func (c *Context) SwapInterval(n int) error {
	if n < 0 {
		return ErrBadParameter
	}
	c.swapInterval = n
	return nil
}

// SwapIntervalValue returns the current swap interval.
func (c *Context) SwapIntervalValue() int { return c.swapInterval }

// SwapBuffers presents the back buffer:
//
//  1. The CPU waits until all rendering to the back buffer has finished
//     ("this call forces a wait until all the submitted work in the GPU has
//     been finished" — paper §II). This is what makes per-frame pipelining
//     impossible for applications that must present.
//  2. With a positive swap interval, presentation additionally waits for
//     the next vsync tick — the 60 Hz gate of Fig. 3.
//  3. The buffers flip; the new back buffer holds the frame from two swaps
//     ago (double buffering).
//
// Pbuffer surfaces only flush, as on real implementations.
func (c *Context) SwapBuffers() error {
	s := c.Draw
	if s == nil {
		return ErrBadSurface
	}
	m := c.Disp.Machine
	// "This call forces a wait until all the submitted work in the GPU has
	// been finished" (paper §II) — a full drain, not just this surface —
	// followed by the driver's composition/flip work.
	m.WaitAll()
	m.CPU.Advance(c.Disp.prof.SwapBookkeeping)
	if s.window && c.swapInterval > 0 {
		t := m.CPU.Now()
		for i := 0; i < c.swapInterval; i++ {
			t = m.VSyncClock.NextTick(t)
		}
		m.CPU.AdvanceTo(t)
	}
	if s.window {
		s.back = 1 - s.back
	}
	s.swaps++
	return nil
}
