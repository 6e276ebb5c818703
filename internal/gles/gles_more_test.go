package gles

import (
	"testing"

	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/egl"
	"gles2gpgpu/internal/timing"
)

// Second coverage pass: uniform setters, sampling modes, sub-resources,
// deletion semantics and driver-timing behaviours not exercised by the
// main integration tests.

func TestUniformSetters(t *testing.T) {
	env := newEnv(t, device.Generic(), 4, 4, false)
	gl := env.gl
	p := buildProgram(t, gl, quadVS, `
precision mediump float;
uniform float f1;
uniform vec2 f2;
uniform vec3 f3;
uniform vec4 f4;
uniform float arr[3];
uniform vec4 varr[2];
uniform mat4 m4;
uniform mat2 m2;
void main(){
	float s = f1 + f2.y + f3.z + f4.w + arr[2] + varr[1].x;
	vec4 mcol = m4[3] + vec4(m2[1], 0.0, 0.0);
	gl_FragColor = vec4((s + mcol.x) / 16.0);
}`)
	gl.UseProgram(p)
	gl.Uniform1f(gl.GetUniformLocation(p, "f1"), 1)
	gl.Uniform2f(gl.GetUniformLocation(p, "f2"), 0, 2)
	gl.Uniform3f(gl.GetUniformLocation(p, "f3"), 0, 0, 3)
	gl.Uniform4f(gl.GetUniformLocation(p, "f4"), 0, 0, 0, 4)
	gl.Uniform1fv(gl.GetUniformLocation(p, "arr"), []float32{9, 9, 5})
	gl.Uniform4fv(gl.GetUniformLocation(p, "varr"), []float32{9, 9, 9, 9, 6, 0, 0, 0})
	m4 := make([]float32, 16)
	m4[12] = 7 // column 3, row 0
	gl.UniformMatrix4fv(gl.GetUniformLocation(p, "m4"), m4)
	gl.UniformMatrix2fv(gl.GetUniformLocation(p, "m2"), []float32{0, 0, 8, 0}) // column 1 = (8,0)
	if e := gl.GetError(); e != NO_ERROR {
		t.Fatalf("uniform setting error: %s", ErrName(e))
	}
	drawQuad(t, gl, p)
	buf := make([]byte, 4*4*4)
	gl.ReadPixels(0, 0, 4, 4, RGBA, UNSIGNED_BYTE, buf)
	// (1+2+3+4+5+6 + 7+8)/16 = 36/16 = 2.25 -> clamped... recompute:
	// s = 21, mcol.x = m4[3].x + m2[1].x = 7 + 8 = 15; (21+15)/16 = 2.25
	// clamps to 1.0 -> 255.
	if buf[0] != 255 {
		t.Errorf("pixel = %d, want saturated 255", buf[0])
	}
}

func TestUniformErrors(t *testing.T) {
	env := newEnv(t, device.Generic(), 4, 4, false)
	gl := env.gl
	p := buildProgram(t, gl, quadVS, `
precision mediump float;
uniform sampler2D s;
uniform float f;
void main(){ gl_FragColor = texture2D(s, vec2(f)); }`)
	gl.UseProgram(p)
	// Location -1 is silently ignored.
	gl.Uniform1f(-1, 3)
	if e := gl.GetError(); e != NO_ERROR {
		t.Errorf("Uniform1f(-1) raised %s", ErrName(e))
	}
	// Setting a sampler with Uniform1f is invalid.
	gl.Uniform1f(gl.GetUniformLocation(p, "s"), 1)
	if e := gl.GetError(); e != INVALID_OPERATION {
		t.Errorf("Uniform1f on sampler: %s", ErrName(e))
	}
	// Sampler unit out of range.
	gl.Uniform1i(gl.GetUniformLocation(p, "s"), 99)
	if e := gl.GetError(); e != INVALID_VALUE {
		t.Errorf("Uniform1i(99): %s", ErrName(e))
	}
	// Unknown location.
	gl.Uniform1f(12345, 0)
	if e := gl.GetError(); e != INVALID_OPERATION {
		t.Errorf("bogus location: %s", ErrName(e))
	}
	// UniformMatrix with short data.
	gl.UniformMatrix4fv(gl.GetUniformLocation(p, "f"), []float32{1, 2})
	if e := gl.GetError(); e != INVALID_VALUE {
		t.Errorf("short matrix: %s", ErrName(e))
	}
	// No current program.
	gl.UseProgram(0)
	gl.Uniform1f(1, 0)
	if e := gl.GetError(); e != INVALID_OPERATION {
		t.Errorf("uniform without program: %s", ErrName(e))
	}
}

func TestMultiUnitSampling(t *testing.T) {
	env := newEnv(t, device.Generic(), 2, 2, false)
	gl := env.gl
	mkTex := func(val byte) uint32 {
		tex := gl.GenTexture()
		gl.BindTexture(TEXTURE_2D, tex)
		gl.TexParameteri(TEXTURE_2D, TEXTURE_MIN_FILTER, NEAREST)
		gl.TexParameteri(TEXTURE_2D, TEXTURE_MAG_FILTER, NEAREST)
		data := make([]byte, 2*2*4)
		for i := range data {
			data[i] = val
		}
		gl.TexImage2D(TEXTURE_2D, 0, RGBA, 2, 2, RGBA, UNSIGNED_BYTE, data)
		return tex
	}
	t0 := mkTex(100)
	t1 := mkTex(200)
	p := buildProgram(t, gl, quadVS, `
precision mediump float;
uniform sampler2D texA;
uniform sampler2D texB;
varying vec2 v_tex;
void main(){
	gl_FragColor = vec4(texture2D(texA, v_tex).r, texture2D(texB, v_tex).r, 0.0, 1.0);
}`)
	gl.UseProgram(p)
	gl.ActiveTexture(TEXTURE0 + 3)
	gl.BindTexture(TEXTURE_2D, t0)
	gl.ActiveTexture(TEXTURE0 + 5)
	gl.BindTexture(TEXTURE_2D, t1)
	gl.ActiveTexture(TEXTURE0)
	gl.Uniform1i(gl.GetUniformLocation(p, "texA"), 3)
	gl.Uniform1i(gl.GetUniformLocation(p, "texB"), 5)
	drawQuad(t, gl, p)
	buf := make([]byte, 2*2*4)
	gl.ReadPixels(0, 0, 2, 2, RGBA, UNSIGNED_BYTE, buf)
	if buf[0] != 100 || buf[1] != 200 {
		t.Errorf("pixel = %v, want r=100 g=200", buf[:4])
	}
}

func TestIncompleteTextureSamplesBlack(t *testing.T) {
	env := newEnv(t, device.Generic(), 2, 2, false)
	gl := env.gl
	tex := gl.GenTexture()
	gl.BindTexture(TEXTURE_2D, tex)
	// Default min filter uses mipmaps; no mip chain exists -> incomplete.
	data := []byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255}
	gl.TexImage2D(TEXTURE_2D, 0, RGBA, 2, 2, RGBA, UNSIGNED_BYTE, data)
	p := buildProgram(t, gl, quadVS, `
precision mediump float;
uniform sampler2D s;
varying vec2 v_tex;
void main(){ gl_FragColor = texture2D(s, v_tex); }`)
	gl.UseProgram(p)
	gl.Uniform1i(gl.GetUniformLocation(p, "s"), 0)
	drawQuad(t, gl, p)
	buf := make([]byte, 2*2*4)
	gl.ReadPixels(0, 0, 2, 2, RGBA, UNSIGNED_BYTE, buf)
	if buf[0] != 0 || buf[3] != 255 {
		t.Errorf("incomplete texture sampled %v, want opaque black", buf[:4])
	}
}

func TestWrapModesAndBilinear(t *testing.T) {
	env := newEnv(t, device.Generic(), 4, 4, false)
	gl := env.gl
	tex := gl.GenTexture()
	gl.BindTexture(TEXTURE_2D, tex)
	gl.TexParameteri(TEXTURE_2D, TEXTURE_MIN_FILTER, NEAREST)
	gl.TexParameteri(TEXTURE_2D, TEXTURE_MAG_FILTER, NEAREST)
	gl.TexParameteri(TEXTURE_2D, TEXTURE_WRAP_S, REPEAT)
	gl.TexParameteri(TEXTURE_2D, TEXTURE_WRAP_T, REPEAT)
	// 2x1-ish gradient in a 2x2 texture: left texels 0, right texels 200.
	data := []byte{
		0, 0, 0, 255, 200, 0, 0, 255,
		0, 0, 0, 255, 200, 0, 0, 255,
	}
	gl.TexImage2D(TEXTURE_2D, 0, RGBA, 2, 2, RGBA, UNSIGNED_BYTE, data)
	p := buildProgram(t, gl, quadVS, `
precision mediump float;
uniform sampler2D s;
varying vec2 v_tex;
void main(){ gl_FragColor = texture2D(s, v_tex + vec2(1.0, 0.0)); }`)
	gl.UseProgram(p)
	gl.Uniform1i(gl.GetUniformLocation(p, "s"), 0)
	drawQuad(t, gl, p)
	buf := make([]byte, 4*4*4)
	gl.ReadPixels(0, 0, 4, 4, RGBA, UNSIGNED_BYTE, buf)
	// REPEAT: coord+1.0 wraps to the same texel; left half samples 0.
	if buf[0] != 0 {
		t.Errorf("REPEAT wrap: pixel = %d, want 0", buf[0])
	}
	if buf[3*4] != 200 {
		t.Errorf("REPEAT wrap right half = %d, want 200", buf[3*4])
	}
	// Bilinear magnification between the two columns.
	gl.BindTexture(TEXTURE_2D, tex)
	gl.TexParameteri(TEXTURE_2D, TEXTURE_MAG_FILTER, LINEAR)
	gl.TexParameteri(TEXTURE_2D, TEXTURE_WRAP_S, CLAMP_TO_EDGE)
	gl.TexParameteri(TEXTURE_2D, TEXTURE_WRAP_T, CLAMP_TO_EDGE)
	p2 := buildProgram(t, gl, quadVS, `
precision mediump float;
uniform sampler2D s;
void main(){ gl_FragColor = texture2D(s, vec2(0.5, 0.5)); }`)
	gl.UseProgram(p2)
	gl.Uniform1i(gl.GetUniformLocation(p2, "s"), 0)
	drawQuad(t, gl, p2)
	gl.ReadPixels(0, 0, 1, 1, RGBA, UNSIGNED_BYTE, buf)
	if buf[0] < 95 || buf[0] > 105 {
		t.Errorf("bilinear midpoint = %d, want ~100", buf[0])
	}
}

func TestBufferSubData(t *testing.T) {
	env := newEnv(t, device.Generic(), 4, 4, false)
	gl := env.gl
	vbo := gl.GenBuffer()
	gl.BindBuffer(ARRAY_BUFFER, vbo)
	gl.BufferData(ARRAY_BUFFER, Float32Bytes([]float32{1, 2, 3, 4}), DYNAMIC_DRAW)
	gl.BufferSubData(ARRAY_BUFFER, 4, Float32Bytes([]float32{9}))
	if e := gl.GetError(); e != NO_ERROR {
		t.Fatalf("BufferSubData: %s", ErrName(e))
	}
	// Out of range.
	gl.BufferSubData(ARRAY_BUFFER, 14, Float32Bytes([]float32{9}))
	if e := gl.GetError(); e != INVALID_VALUE {
		t.Errorf("oversized BufferSubData: %s", ErrName(e))
	}
	// No buffer bound.
	gl.BindBuffer(ARRAY_BUFFER, 0)
	gl.BufferSubData(ARRAY_BUFFER, 0, []byte{1})
	if e := gl.GetError(); e != INVALID_OPERATION {
		t.Errorf("BufferSubData without binding: %s", ErrName(e))
	}
	// Bad usage hint.
	gl.BindBuffer(ARRAY_BUFFER, vbo)
	gl.BufferData(ARRAY_BUFFER, []byte{0}, Enum(0x1234))
	if e := gl.GetError(); e != INVALID_ENUM {
		t.Errorf("bad usage: %s", ErrName(e))
	}
}

func TestDeleteSemantics(t *testing.T) {
	env := newEnv(t, device.Generic(), 4, 4, false)
	gl := env.gl
	tex := gl.GenTexture()
	gl.BindTexture(TEXTURE_2D, tex)
	gl.TexImage2D(TEXTURE_2D, 0, RGBA, 4, 4, RGBA, UNSIGNED_BYTE, make([]byte, 64))
	live := gl.Allocator().LiveCount()
	gl.DeleteTexture(tex)
	if gl.Allocator().LiveCount() != live-1 {
		t.Error("texture deletion leaked GPU memory")
	}
	if gl.BoundTexture() != 0 {
		t.Error("deleted texture still bound")
	}
	// Deleting twice is harmless (GL semantics).
	gl.DeleteTexture(tex)
	if e := gl.GetError(); e != NO_ERROR {
		t.Errorf("double delete: %s", ErrName(e))
	}
	vbo := gl.GenBuffer()
	gl.BindBuffer(ARRAY_BUFFER, vbo)
	gl.BufferData(ARRAY_BUFFER, []byte{1, 2, 3, 4}, STATIC_DRAW)
	gl.DeleteBuffer(vbo)
	gl.DeleteBuffer(vbo)
	fbo := gl.GenFramebuffer()
	gl.BindFramebuffer(FRAMEBUFFER, fbo)
	gl.DeleteFramebuffer(fbo)
	// Binding reset to default framebuffer.
	if _, ok := env.gl.currentTarget(); !ok {
		t.Error("default framebuffer lost after FBO deletion")
	}
	sh := gl.CreateShader(FRAGMENT_SHADER)
	gl.DeleteShader(sh)
	pr := gl.CreateProgram()
	gl.DeleteProgram(pr)
	if e := gl.GetError(); e != NO_ERROR {
		t.Errorf("delete pass: %s", ErrName(e))
	}
}

func TestDiscardFramebufferEXT(t *testing.T) {
	env := newEnv(t, device.Generic(), 8, 8, false)
	gl := env.gl
	m := gl.Machine()
	p := buildProgram(t, gl, quadVS, `
precision mediump float;
void main(){ gl_FragColor = vec4(0.5); }`)
	// Without invalidation: the second draw loads tiles.
	drawQuad(t, gl, p)
	drawQuad(t, gl, p)
	loadsBefore := m.Stats.TileLoads
	if loadsBefore == 0 {
		t.Fatal("expected tile loads on preserved target")
	}
	// With discard: no loads for the next draw.
	gl.DiscardFramebufferEXT(FRAMEBUFFER, []Enum{COLOR_ATTACHMENT0})
	drawQuad(t, gl, p)
	if m.Stats.TileLoads != loadsBefore {
		t.Errorf("discarded target still loaded tiles (%d -> %d)", loadsBefore, m.Stats.TileLoads)
	}
	gl.DiscardFramebufferEXT(Enum(0x1234), nil)
	if e := gl.GetError(); e != INVALID_ENUM {
		t.Errorf("bad discard target: %s", ErrName(e))
	}
}

func TestReadPixelsSubregion(t *testing.T) {
	env := newEnv(t, device.Generic(), 8, 8, false)
	gl := env.gl
	gl.ClearColor(0.0, 0.0, 0.0, 1.0)
	gl.Clear(COLOR_BUFFER_BIT)
	// Paint a known texel via CopyTexSubImage-style direct draw: use
	// scissor-free full clear then selective readback only.
	gl.ClearColor(1, 0, 0, 1)
	gl.Clear(COLOR_BUFFER_BIT)
	buf := make([]byte, 2*2*4)
	gl.ReadPixels(3, 3, 2, 2, RGBA, UNSIGNED_BYTE, buf)
	if buf[0] != 255 {
		t.Errorf("subregion read = %v", buf[:4])
	}
	gl.ReadPixels(7, 7, 2, 2, RGBA, UNSIGNED_BYTE, buf)
	if e := gl.GetError(); e != INVALID_VALUE {
		t.Errorf("out-of-bounds read: %s", ErrName(e))
	}
	gl.ReadPixels(0, 0, 2, 2, RGBA, UNSIGNED_BYTE, buf[:3])
	if e := gl.GetError(); e != INVALID_OPERATION {
		t.Errorf("short buffer: %s", ErrName(e))
	}
}

func TestCopyTexFeedbackLoopRejected(t *testing.T) {
	env := newEnv(t, device.Generic(), 8, 8, false)
	gl := env.gl
	tex := gl.GenTexture()
	gl.BindTexture(TEXTURE_2D, tex)
	gl.TexImage2D(TEXTURE_2D, 0, RGBA, 8, 8, RGBA, UNSIGNED_BYTE, nil)
	fbo := gl.GenFramebuffer()
	gl.BindFramebuffer(FRAMEBUFFER, fbo)
	gl.FramebufferTexture2D(FRAMEBUFFER, COLOR_ATTACHMENT0, TEXTURE_2D, tex, 0)
	// Copying the FBO into its own attachment is a feedback loop.
	gl.CopyTexImage2D(TEXTURE_2D, 0, RGBA, 0, 0, 8, 8, 0)
	if e := gl.GetError(); e != INVALID_OPERATION {
		t.Errorf("feedback copy: %s", ErrName(e))
	}
	gl.CopyTexSubImage2D(TEXTURE_2D, 0, 0, 0, 0, 0, 4, 4)
	if e := gl.GetError(); e != INVALID_OPERATION {
		t.Errorf("feedback subcopy: %s", ErrName(e))
	}
}

func TestViewportSubrectangle(t *testing.T) {
	env := newEnv(t, device.Generic(), 8, 8, false)
	gl := env.gl
	gl.ClearColor(0, 0, 0, 1)
	gl.Clear(COLOR_BUFFER_BIT)
	p := buildProgram(t, gl, quadVS, `
precision mediump float;
void main(){ gl_FragColor = vec4(1.0); }`)
	gl.Viewport(4, 4, 4, 4) // top-right quadrant
	drawQuad(t, gl, p)
	buf := make([]byte, 8*8*4)
	gl.ReadPixels(0, 0, 8, 8, RGBA, UNSIGNED_BYTE, buf)
	if buf[0] != 0 {
		t.Error("pixel (0,0) painted outside viewport")
	}
	if buf[(5*8+5)*4] != 255 {
		t.Error("pixel (5,5) not painted inside viewport")
	}
	gl.Viewport(0, 0, -1, 4)
	if e := gl.GetError(); e != INVALID_VALUE {
		t.Errorf("negative viewport: %s", ErrName(e))
	}
}

func TestTexSubImageValidation(t *testing.T) {
	env := newEnv(t, device.Generic(), 4, 4, false)
	gl := env.gl
	tex := gl.GenTexture()
	gl.BindTexture(TEXTURE_2D, tex)
	data := make([]byte, 4*4*4)
	// Sub-image before allocation is invalid.
	gl.TexSubImage2D(TEXTURE_2D, 0, 0, 0, 4, 4, RGBA, UNSIGNED_BYTE, data)
	if e := gl.GetError(); e != INVALID_OPERATION {
		t.Errorf("sub-image before TexImage: %s", ErrName(e))
	}
	gl.TexImage2D(TEXTURE_2D, 0, RGBA, 4, 4, RGBA, UNSIGNED_BYTE, data)
	// Region out of bounds.
	gl.TexSubImage2D(TEXTURE_2D, 0, 2, 2, 4, 4, RGBA, UNSIGNED_BYTE, data)
	if e := gl.GetError(); e != INVALID_VALUE {
		t.Errorf("oob sub-image: %s", ErrName(e))
	}
	// Partial update lands in the right texels.
	patch := make([]byte, 2*2*4)
	for i := range patch {
		patch[i] = 77
	}
	gl.TexSubImage2D(TEXTURE_2D, 0, 1, 1, 2, 2, RGBA, UNSIGNED_BYTE, patch)
	td := gl.TextureData(tex)
	if td[(1*4+1)*4] != 77 || td[0] != 0 {
		t.Error("sub-image region placement wrong")
	}
}

func TestAdditiveBlendingHistogram(t *testing.T) {
	// glBlendFunc(GL_ONE, GL_ONE) scatter-accumulate: the GPGPU histogram
	// idiom. Three points land in the same bin; the bin accumulates.
	env := newEnv(t, device.Generic(), 4, 4, false)
	gl := env.gl
	gl.ClearColor(0, 0, 0, 0)
	gl.Clear(COLOR_BUFFER_BIT)
	gl.Enable(BLEND)
	gl.BlendFunc(ONE, ONE)
	p := buildProgram(t, gl, `
attribute vec2 a_pos;
void main(){ gl_Position = vec4(a_pos, 0.0, 1.0); }`, `
precision mediump float;
void main(){ gl_FragColor = vec4(0.25, 0.0, 0.0, 0.0); }`)
	gl.UseProgram(p)
	loc := gl.GetAttribLocation(p, "a_pos")
	gl.EnableVertexAttribArray(loc)
	// Three points, all at pixel (1,1); one at pixel (2,2).
	pts := []float32{-0.25, -0.25, -0.25, -0.25, -0.25, -0.25, 0.25, 0.25}
	gl.VertexAttribPointerClient(loc, 2, pts, 0, 0)
	gl.DrawArrays(POINTS, 0, 4)
	if e := gl.GetError(); e != NO_ERROR {
		t.Fatalf("blend draw: %s", ErrName(e))
	}
	buf := make([]byte, 4*4*4)
	gl.ReadPixels(0, 0, 4, 4, RGBA, UNSIGNED_BYTE, buf)
	at := func(x, y int) byte { return buf[(y*4+x)*4] }
	// 3 × 0.25 = 0.75 -> 191; 1 × 0.25 -> 64.
	if got := at(1, 1); got < 189 || got > 193 {
		t.Errorf("bin (1,1) = %d, want ~191 (3 hits)", got)
	}
	if got := at(2, 2); got < 62 || got > 66 {
		t.Errorf("bin (2,2) = %d, want ~64 (1 hit)", got)
	}
	// Saturation: many more hits clamp at 255.
	gl.DrawArrays(POINTS, 0, 3)
	gl.DrawArrays(POINTS, 0, 3)
	gl.ReadPixels(0, 0, 4, 4, RGBA, UNSIGNED_BYTE, buf)
	if got := at(1, 1); got != 255 {
		t.Errorf("saturated bin = %d, want 255", got)
	}
	// Disable returns to replace semantics.
	gl.Disable(BLEND)
	gl.DrawArrays(POINTS, 0, 4)
	gl.ReadPixels(0, 0, 4, 4, RGBA, UNSIGNED_BYTE, buf)
	if got := at(1, 1); got != 64 {
		t.Errorf("unblended write = %d, want 64", got)
	}
}

func TestAlphaBlending(t *testing.T) {
	env := newEnv(t, device.Generic(), 2, 2, false)
	gl := env.gl
	gl.ClearColor(1, 0, 0, 1) // red background
	gl.Clear(COLOR_BUFFER_BIT)
	gl.Enable(BLEND)
	gl.BlendFunc(SRC_ALPHA, ONE_MINUS_SRC_ALPHA)
	p := buildProgram(t, gl, quadVS, `
precision mediump float;
void main(){ gl_FragColor = vec4(0.0, 1.0, 0.0, 0.5); }`) // half-transparent green
	drawQuad(t, gl, p)
	buf := make([]byte, 2*2*4)
	gl.ReadPixels(0, 0, 2, 2, RGBA, UNSIGNED_BYTE, buf)
	// 0.5*green + 0.5*red.
	if buf[0] < 126 || buf[0] > 130 || buf[1] < 126 || buf[1] > 130 {
		t.Errorf("composited pixel = %v, want ~(128,128,..)", buf[:4])
	}
	gl.Enable(Enum(0x9999))
	if e := gl.GetError(); e != INVALID_ENUM {
		t.Errorf("bad capability: %s", ErrName(e))
	}
	gl.BlendFunc(Enum(0x9999), ONE)
	if e := gl.GetError(); e != INVALID_ENUM {
		t.Errorf("bad blend factor: %s", ErrName(e))
	}
}

func TestPointRenderingScatter(t *testing.T) {
	// GL_POINTS as the GPGPU scatter primitive: write values at computed
	// locations with flat varyings and gl_PointCoord.
	env := newEnv(t, device.Generic(), 8, 8, false)
	gl := env.gl
	gl.ClearColor(0, 0, 0, 1)
	gl.Clear(COLOR_BUFFER_BIT)
	vs := `
attribute vec2 a_pos;
attribute float a_val;
varying float v_val;
void main(){
	gl_Position = vec4(a_pos, 0.0, 1.0);
	gl_PointSize = 2.0;
	v_val = a_val;
}`
	fs := `
precision mediump float;
varying float v_val;
void main(){ gl_FragColor = vec4(v_val, gl_PointCoord.x, 0.0, 1.0); }`
	p := buildProgram(t, gl, vs, fs)
	gl.UseProgram(p)
	// Two points: one at the centre of pixel block (2,2), one at (6,6).
	// NDC centre of pixel block (2,2)+(3,3) etc: x = (3/8)*2-1.
	pos := []float32{-0.25, -0.25, 0.75, 0.75}
	vals := []float32{0.5, 1.0}
	posLoc := gl.GetAttribLocation(p, "a_pos")
	valLoc := gl.GetAttribLocation(p, "a_val")
	gl.EnableVertexAttribArray(posLoc)
	gl.EnableVertexAttribArray(valLoc)
	gl.VertexAttribPointerClient(posLoc, 2, pos, 0, 0)
	gl.VertexAttribPointerClient(valLoc, 1, vals, 0, 0)
	gl.DrawArrays(POINTS, 0, 2)
	if e := gl.GetError(); e != NO_ERROR {
		t.Fatalf("points draw: %s", ErrName(e))
	}
	buf := make([]byte, 8*8*4)
	gl.ReadPixels(0, 0, 8, 8, RGBA, UNSIGNED_BYTE, buf)
	at := func(x, y int) byte { return buf[(y*8+x)*4] }
	// First point (value 0.5 -> 128) covers the 2x2 block at (2..3, 2..3).
	if at(2, 2) != 128 || at(3, 3) != 128 {
		t.Errorf("point 1 block = %d/%d, want 128", at(2, 2), at(3, 3))
	}
	// Second point (value 1.0) covers (6..7, 6..7).
	if at(6, 6) != 255 || at(7, 7) != 255 {
		t.Errorf("point 2 block = %d/%d, want 255", at(6, 6), at(7, 7))
	}
	// Background untouched.
	if at(0, 0) != 0 || at(5, 2) != 0 {
		t.Error("scatter wrote outside its points")
	}
	// gl_PointCoord sweeps 0..1 across each point: green channel differs
	// between the left and right columns of a block.
	g := func(x, y int) byte { return buf[(y*8+x)*4+1] }
	if !(g(2, 2) < g(3, 2)) {
		t.Errorf("gl_PointCoord.x not increasing: %d vs %d", g(2, 2), g(3, 2))
	}
}

func TestPointDefaultSizeOnePixel(t *testing.T) {
	env := newEnv(t, device.Generic(), 4, 4, false)
	gl := env.gl
	gl.Clear(COLOR_BUFFER_BIT)
	p := buildProgram(t, gl, `
attribute vec2 a_pos;
void main(){ gl_Position = vec4(a_pos, 0.0, 1.0); }`, `
precision mediump float;
void main(){ gl_FragColor = vec4(1.0); }`)
	gl.UseProgram(p)
	loc := gl.GetAttribLocation(p, "a_pos")
	gl.EnableVertexAttribArray(loc)
	// Centre of pixel (1,1): ndc = (1.5/4)*2-1 = -0.25.
	gl.VertexAttribPointerClient(loc, 2, []float32{-0.25, -0.25}, 0, 0)
	gl.DrawArrays(POINTS, 0, 1)
	buf := make([]byte, 4*4*4)
	gl.ReadPixels(0, 0, 4, 4, RGBA, UNSIGNED_BYTE, buf)
	lit := 0
	for i := 0; i < 16; i++ {
		if buf[i*4] == 255 {
			lit++
			if i != 1*4+1 {
				t.Errorf("wrong pixel lit: %d", i)
			}
		}
	}
	if lit != 1 {
		t.Errorf("%d pixels lit, want exactly 1", lit)
	}
}

func TestInterleavedVertexAttributes(t *testing.T) {
	// One VBO holding interleaved {pos.xy, brightness} per vertex: stride
	// and offset addressing must fetch the right components.
	env := newEnv(t, device.Generic(), 4, 4, false)
	gl := env.gl
	vs := `
attribute vec2 a_pos;
attribute float a_bright;
varying float v_b;
void main(){ gl_Position = vec4(a_pos, 0.0, 1.0); v_b = a_bright; }`
	fs := `
precision mediump float;
varying float v_b;
void main(){ gl_FragColor = vec4(v_b); }`
	p := buildProgram(t, gl, vs, fs)
	gl.UseProgram(p)
	// Interleaved: x, y, brightness — 12-byte stride.
	data := []float32{
		-1, -1, 0.5,
		1, -1, 0.5,
		1, 1, 0.5,
		-1, -1, 0.5,
		1, 1, 0.5,
		-1, 1, 0.5,
	}
	vbo := gl.GenBuffer()
	gl.BindBuffer(ARRAY_BUFFER, vbo)
	gl.BufferData(ARRAY_BUFFER, Float32Bytes(data), STATIC_DRAW)
	posLoc := gl.GetAttribLocation(p, "a_pos")
	bLoc := gl.GetAttribLocation(p, "a_bright")
	gl.EnableVertexAttribArray(posLoc)
	gl.EnableVertexAttribArray(bLoc)
	gl.VertexAttribPointer(posLoc, 2, FLOAT, 12, 0)
	gl.VertexAttribPointer(bLoc, 1, FLOAT, 12, 8)
	gl.DrawArrays(TRIANGLES, 0, 6)
	if e := gl.GetError(); e != NO_ERROR {
		t.Fatalf("draw: %s", ErrName(e))
	}
	buf := make([]byte, 4)
	gl.ReadPixels(2, 2, 1, 1, RGBA, UNSIGNED_BYTE, buf)
	if buf[0] != 128 {
		t.Errorf("brightness = %d, want 128", buf[0])
	}
}

func TestSurfaceSwitchMidStream(t *testing.T) {
	// Rendering continues correctly after MakeCurrent moves the context
	// to another surface.
	prof := device.Generic()
	d := egl.GetDisplay(prof)
	d.Initialize()
	s1, _ := d.CreatePbufferSurface(4, 4)
	s2, _ := d.CreatePbufferSurface(8, 8)
	ec, _ := d.CreateContext()
	ec.MakeCurrent(s1)
	gl := NewContext(ec)
	p := buildProgram(t, gl, quadVS, `
precision mediump float;
void main(){ gl_FragColor = vec4(1.0, 0.0, 0.0, 1.0); }`)
	gl.Viewport(0, 0, 4, 4)
	drawQuad(t, gl, p)
	if err := ec.MakeCurrent(s2); err != nil {
		t.Fatal(err)
	}
	gl.Viewport(0, 0, 8, 8)
	p2 := buildProgram(t, gl, quadVS, `
precision mediump float;
void main(){ gl_FragColor = vec4(0.0, 1.0, 0.0, 1.0); }`)
	drawQuad(t, gl, p2)
	buf := make([]byte, 8*8*4)
	gl.ReadPixels(0, 0, 8, 8, RGBA, UNSIGNED_BYTE, buf)
	if buf[0] != 0 || buf[1] != 255 {
		t.Errorf("second surface pixel = %v", buf[:4])
	}
	// First surface retains its red frame.
	ec.MakeCurrent(s1)
	gl.Viewport(0, 0, 4, 4)
	buf = buf[:4*4*4]
	gl.ReadPixels(0, 0, 4, 4, RGBA, UNSIGNED_BYTE, buf)
	if buf[0] != 255 || buf[1] != 0 {
		t.Errorf("first surface pixel = %v", buf[:4])
	}
}

func TestSwapIntervalDrivesIterationTiming(t *testing.T) {
	// End-to-end: a draw+swap loop on the VideoCore profile takes one
	// vsync period per frame; with interval 0 it collapses to the work.
	run := func(interval int) timing.Time {
		env := newEnv(t, device.VideoCoreIV(), 16, 16, true)
		gl := env.gl
		env.ectx.SwapInterval(interval)
		p := buildProgram(t, gl, quadVS, `
precision mediump float;
void main(){ gl_FragColor = vec4(1.0); }`)
		gl.UseProgram(p)
		loc := gl.GetAttribLocation(p, "a_pos")
		quad := []float32{-1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1}
		gl.EnableVertexAttribArray(loc)
		gl.VertexAttribPointerClient(loc, 2, quad, 0, 0)
		start := gl.Machine().Now()
		for i := 0; i < 10; i++ {
			gl.Clear(COLOR_BUFFER_BIT)
			gl.DrawArrays(TRIANGLES, 0, 6)
			env.ectx.SwapBuffers()
		}
		return (gl.Machine().Now() - start) / 10
	}
	gated := run(1)
	free := run(0)
	period := timing.FromSeconds(1.0 / 60)
	if gated < period*9/10 {
		t.Errorf("interval-1 frame %v, want >= %v", gated, period)
	}
	if free >= period/2 {
		t.Errorf("interval-0 frame %v, want well below %v", free, period)
	}
}

// TestDependentTexChainLinks: the dependent-texture-read depth is
// invisible to the compile-time counters, so a five-deep fetch chain
// compiles and links on the VideoCore profile — the simulator runs
// over-limit programs to measure them. glslc -limits and
// analysis.TestDependentTexLimit report the depth diagnostic.
func TestDependentTexChainLinks(t *testing.T) {
	src := `
precision mediump float;
uniform sampler2D u_tex;
varying vec2 v_tex;
void main() {
	vec2 c = v_tex;
	c = texture2D(u_tex, c).xy;
	c = texture2D(u_tex, c).xy;
	c = texture2D(u_tex, c).xy;
	c = texture2D(u_tex, c).xy;
	c = texture2D(u_tex, c).xy;
	gl_FragColor = vec4(c, 0.0, 1.0);
}`
	env := newEnv(t, device.VideoCoreIV(), 4, 4, false)
	gl := env.gl
	defer gl.Destroy()
	vs := gl.CreateShader(VERTEX_SHADER)
	gl.ShaderSource(vs, quadVS)
	gl.CompileShader(vs)
	fs := gl.CreateShader(FRAGMENT_SHADER)
	gl.ShaderSource(fs, src)
	gl.CompileShader(fs)
	if gl.GetShaderiv(fs, COMPILE_STATUS) != 1 {
		t.Fatalf("compile-time limits should not see dependent reads: %s", gl.GetShaderInfoLog(fs))
	}
	p := gl.CreateProgram()
	gl.AttachShader(p, vs)
	gl.AttachShader(p, fs)
	gl.LinkProgram(p)
	if gl.GetProgramiv(p, LINK_STATUS) != 1 {
		t.Fatalf("link should accept the shader: %s", gl.GetProgramInfoLog(p))
	}
}
