package gles

import (
	"fmt"

	"gles2gpgpu/internal/gpu"
)

// GenFramebuffer creates a framebuffer object name.
func (c *Context) GenFramebuffer() uint32 {
	c.apiCost()
	name := c.genName()
	c.framebuffers[name] = &Framebuffer{name: name}
	return name
}

// BindFramebuffer binds an FBO (0 = the default window-system framebuffer).
func (c *Context) BindFramebuffer(target Enum, name uint32) {
	c.apiCost()
	if target != FRAMEBUFFER {
		c.setErr(INVALID_ENUM)
		return
	}
	if name != 0 {
		if _, ok := c.framebuffers[name]; !ok {
			c.setErr(INVALID_OPERATION)
			return
		}
	}
	c.boundFB = name
}

// DeleteFramebuffer removes an FBO.
func (c *Context) DeleteFramebuffer(name uint32) {
	c.apiCost()
	delete(c.framebuffers, name)
	if c.boundFB == name {
		c.boundFB = 0
	}
}

// FramebufferTexture2D attaches a texture as the colour buffer — the
// paper's "texture rendering" path (§II Texture Writing): tiles write
// straight into the texture, skipping the framebuffer-to-texture copy.
func (c *Context) FramebufferTexture2D(target, attachment, textarget Enum, texture uint32, level int) {
	c.apiCost()
	if target != FRAMEBUFFER || textarget != TEXTURE_2D {
		c.setErr(INVALID_ENUM)
		return
	}
	if attachment != COLOR_ATTACHMENT0 {
		c.setErr(INVALID_ENUM)
		return
	}
	if level != 0 {
		c.setErr(INVALID_VALUE)
		return
	}
	fb := c.framebuffers[c.boundFB]
	if fb == nil {
		c.setErr(INVALID_OPERATION)
		return
	}
	if texture != 0 {
		if _, ok := c.textures[texture]; !ok {
			c.setErr(INVALID_OPERATION)
			return
		}
	}
	fb.colorTex = texture
}

// CheckFramebufferStatus validates the bound FBO.
func (c *Context) CheckFramebufferStatus(target Enum) Enum {
	c.apiCost()
	if target != FRAMEBUFFER {
		c.setErr(INVALID_ENUM)
		return 0
	}
	if c.boundFB == 0 {
		return FRAMEBUFFER_COMPLETE
	}
	fb := c.framebuffers[c.boundFB]
	if fb == nil || fb.colorTex == 0 {
		return FRAMEBUFFER_INCOMPLETE_ATTACHMENT
	}
	t := c.textures[fb.colorTex]
	if t == nil || !t.allocated {
		return FRAMEBUFFER_INCOMPLETE_ATTACHMENT
	}
	return FRAMEBUFFER_COMPLETE
}

// renderTarget resolves the current draw destination.
type renderTarget struct {
	res    gpu.ResID
	pixels []byte
	w, h   int
	tex    *Texture // nil for the default framebuffer
}

func (c *Context) currentTarget() (renderTarget, bool) {
	if c.boundFB != 0 {
		fb := c.framebuffers[c.boundFB]
		if fb == nil || fb.colorTex == 0 {
			return renderTarget{}, false
		}
		t := c.textures[fb.colorTex]
		if t == nil || !t.allocated {
			return renderTarget{}, false
		}
		return renderTarget{res: t.res, pixels: t.data, w: t.W, h: t.H, tex: t}, true
	}
	s := c.eglCtx.Draw
	if s == nil {
		return renderTarget{}, false
	}
	tgt := renderTarget{res: s.BackRes(), w: s.W, h: s.H}
	if !c.timingOnly {
		// Timing-only replays never touch pixels: leaving them unfetched
		// keeps the surface from allocating its buffers.
		tgt.pixels = s.BackPixels()
	}
	return tgt, true
}

// Clear fills the target with the clear colour. Beyond the functional fill,
// clearing tells the tile engine the previous contents are dead: the next
// draw skips the tile-load readback and carries no dependency on the prior
// frame (paper §II: using glClear to invalidate the frame contents).
func (c *Context) Clear(mask Enum) {
	if mask&COLOR_BUFFER_BIT == 0 {
		c.apiCost()
		return
	}
	tgt, ok := c.currentTarget()
	if !ok {
		c.setErr(INVALID_FRAMEBUFFER_OPERATION)
		return
	}
	if !c.timingOnly {
		px := [4]byte{
			byte(c.clearColor[0]*255 + 0.5),
			byte(c.clearColor[1]*255 + 0.5),
			byte(c.clearColor[2]*255 + 0.5),
			byte(c.clearColor[3]*255 + 0.5),
		}
		buf := tgt.pixels
		for i := 0; i+3 < len(buf); i += 4 {
			buf[i], buf[i+1], buf[i+2], buf[i+3] = px[0], px[1], px[2], px[3]
		}
	}
	if c.functionalOnly {
		return
	}
	c.m.Clear(tgt.res)
}

// DiscardFramebufferEXT implements EXT_discard_framebuffer: the contents
// become undefined (functionally retained for inspection) and the tile
// engine skips the readback, exactly like Clear but without the fill.
func (c *Context) DiscardFramebufferEXT(target Enum, attachments []Enum) {
	if target != FRAMEBUFFER {
		c.setErr(INVALID_ENUM)
		return
	}
	tgt, ok := c.currentTarget()
	if !ok {
		c.setErr(INVALID_FRAMEBUFFER_OPERATION)
		return
	}
	for _, a := range attachments {
		if a == COLOR_ATTACHMENT0 || a == 0x1800 /* COLOR_EXT */ {
			if !c.functionalOnly {
				c.m.Clear(tgt.res)
			}
		}
	}
}

// ReadPixels reads RGBA8 pixels back to the CPU. It drains the pipeline
// (the implicit glFinish of GLES2 readbacks) and pays the transfer cost.
func (c *Context) ReadPixels(x, y, w, h int, format, xtype Enum, dst []byte) {
	c.apiCost()
	if format != RGBA || xtype != UNSIGNED_BYTE {
		c.setErr(INVALID_ENUM)
		return
	}
	tgt, ok := c.currentTarget()
	if !ok {
		c.setErr(INVALID_FRAMEBUFFER_OPERATION)
		return
	}
	if x < 0 || y < 0 || w < 0 || h < 0 || x+w > tgt.w || y+h > tgt.h {
		c.setErr(INVALID_VALUE)
		return
	}
	size := w * h * 4
	if len(dst) < size {
		c.setErr(INVALID_OPERATION)
		return
	}
	if !c.timingOnly {
		for row := 0; row < h; row++ {
			src := ((y+row)*tgt.w + x) * 4
			copy(dst[row*w*4:(row+1)*w*4], tgt.pixels[src:src+w*4])
		}
	}
	if c.functionalOnly {
		return
	}
	c.m.Readback(tgt.res, size)
}

// CopyTexImage2D snapshots the current framebuffer into the bound texture,
// allocating fresh storage (paper §II Texture Writing, step 4 in Fig. 1).
// The copy engine transfer is scheduled by the machine; the implicit
// synchronisation with rendering happens there.
func (c *Context) CopyTexImage2D(target Enum, level int, internalFormat Enum, x, y, w, h, border int) {
	c.apiCost()
	if target != TEXTURE_2D || internalFormat != RGBA {
		c.setErr(INVALID_ENUM)
		return
	}
	if level != 0 || border != 0 {
		c.setErr(INVALID_VALUE)
		return
	}
	t := c.activeTex2D()
	if t == nil {
		c.setErr(INVALID_OPERATION)
		return
	}
	tgt, ok := c.currentTarget()
	if !ok {
		c.setErr(INVALID_FRAMEBUFFER_OPERATION)
		return
	}
	if tgt.tex == t {
		c.setErr(INVALID_OPERATION) // feedback loop
		return
	}
	if x < 0 || y < 0 || w < 0 || h < 0 || x+w > tgt.w || y+h > tgt.h {
		c.setErr(INVALID_VALUE)
		return
	}
	size := w * h * 4
	// Fresh allocation every call — the cost the Sub variant avoids.
	if t.allocated {
		_ = c.alloc.Free(t.alloc)
		c.m.FreeResource(t.res)
	}
	a, cost := c.alloc.Alloc(size, fmt.Sprintf("tex%d copy %dx%d", t.name, w, h))
	c.m.AllocCost(cost)
	t.alloc = a
	t.res = c.m.NewResource(fmt.Sprintf("tex%d", t.name))
	t.W, t.H = w, h
	t.allocated = true
	if !c.timingOnly {
		// The simulated allocation above models the driver cost; host-side,
		// reuse the texture's previous storage when it still fits — every
		// byte of [0, size) is overwritten by the row copies below, so stale
		// contents cannot leak.
		if cap(t.data) >= size {
			t.data = t.data[:size]
		} else {
			t.data = make([]byte, size)
		}
		for row := 0; row < h; row++ {
			src := ((y+row)*tgt.w + x) * 4
			copy(t.data[row*w*4:(row+1)*w*4], tgt.pixels[src:src+w*4])
		}
	}
	c.m.Copy(tgt.res, t.res, size, false)
}

// CopyTexSubImage2D copies into existing texture storage (the reuse
// variant): no allocation, but a write into live storage with the WAR
// hazard Fig. 5b measures.
func (c *Context) CopyTexSubImage2D(target Enum, level, xoff, yoff, x, y, w, h int) {
	c.apiCost()
	if target != TEXTURE_2D {
		c.setErr(INVALID_ENUM)
		return
	}
	if level != 0 {
		c.setErr(INVALID_VALUE)
		return
	}
	t := c.activeTex2D()
	if t == nil || !t.allocated {
		c.setErr(INVALID_OPERATION)
		return
	}
	tgt, ok := c.currentTarget()
	if !ok {
		c.setErr(INVALID_FRAMEBUFFER_OPERATION)
		return
	}
	if tgt.tex == t {
		c.setErr(INVALID_OPERATION)
		return
	}
	if x < 0 || y < 0 || w < 0 || h < 0 || x+w > tgt.w || y+h > tgt.h ||
		xoff < 0 || yoff < 0 || xoff+w > t.W || yoff+h > t.H {
		c.setErr(INVALID_VALUE)
		return
	}
	size := w * h * 4
	if !c.timingOnly {
		for row := 0; row < h; row++ {
			src := ((y+row)*tgt.w + x) * 4
			dst := ((yoff+row)*t.W + xoff) * 4
			copy(t.data[dst:dst+w*4], tgt.pixels[src:src+w*4])
		}
	}
	c.alloc.NoteSubUpdate(size)
	c.m.Copy(tgt.res, t.res, size, true)
}
