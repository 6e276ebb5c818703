package gles

import (
	"strings"
	"testing"

	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/egl"
	"gles2gpgpu/internal/timing"
)

// testEnv bundles a display, surface and GLES context.
type testEnv struct {
	disp *egl.Display
	surf *egl.Surface
	ectx *egl.Context
	gl   *Context
}

func newEnv(t *testing.T, prof *device.Profile, w, h int, window bool) *testEnv {
	t.Helper()
	d := egl.GetDisplay(prof)
	d.Initialize()
	var s *egl.Surface
	var err error
	if window {
		s, err = d.CreateWindowSurface(w, h)
	} else {
		s, err = d.CreatePbufferSurface(w, h)
	}
	if err != nil {
		t.Fatal(err)
	}
	ec, err := d.CreateContext()
	if err != nil {
		t.Fatal(err)
	}
	if err := ec.MakeCurrent(s); err != nil {
		t.Fatal(err)
	}
	gl := NewContext(ec)
	return &testEnv{disp: d, surf: s, ectx: ec, gl: gl}
}

const quadVS = `
attribute vec2 a_pos;
varying vec2 v_tex;
void main() {
	gl_Position = vec4(a_pos, 0.0, 1.0);
	v_tex = a_pos * 0.5 + 0.5;
}`

// buildProgram compiles and links, failing the test on errors.
func buildProgram(t *testing.T, gl *Context, vsSrc, fsSrc string) uint32 {
	t.Helper()
	vs := gl.CreateShader(VERTEX_SHADER)
	gl.ShaderSource(vs, vsSrc)
	gl.CompileShader(vs)
	if gl.GetShaderiv(vs, COMPILE_STATUS) != 1 {
		t.Fatalf("vertex shader: %s", gl.GetShaderInfoLog(vs))
	}
	fs := gl.CreateShader(FRAGMENT_SHADER)
	gl.ShaderSource(fs, fsSrc)
	gl.CompileShader(fs)
	if gl.GetShaderiv(fs, COMPILE_STATUS) != 1 {
		t.Fatalf("fragment shader: %s", gl.GetShaderInfoLog(fs))
	}
	p := gl.CreateProgram()
	gl.AttachShader(p, vs)
	gl.AttachShader(p, fs)
	gl.LinkProgram(p)
	if gl.GetProgramiv(p, LINK_STATUS) != 1 {
		t.Fatalf("link: %s", gl.GetProgramInfoLog(p))
	}
	return p
}

// drawQuad issues a full-screen quad with client-side vertex data.
func drawQuad(t *testing.T, gl *Context, prog uint32) {
	t.Helper()
	gl.UseProgram(prog)
	loc := gl.GetAttribLocation(prog, "a_pos")
	if loc < 0 {
		t.Fatal("a_pos not found")
	}
	quad := []float32{-1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1}
	gl.EnableVertexAttribArray(loc)
	gl.VertexAttribPointerClient(loc, 2, quad, 0, 0)
	gl.DrawArrays(TRIANGLES, 0, 6)
	if e := gl.GetError(); e != NO_ERROR {
		t.Fatalf("draw error: %s", ErrName(e))
	}
}

func TestClearAndReadPixels(t *testing.T) {
	env := newEnv(t, device.Generic(), 8, 8, false)
	gl := env.gl
	gl.ClearColor(1, 0.5, 0, 1)
	gl.Clear(COLOR_BUFFER_BIT)
	buf := make([]byte, 8*8*4)
	gl.ReadPixels(0, 0, 8, 8, RGBA, UNSIGNED_BYTE, buf)
	if e := gl.GetError(); e != NO_ERROR {
		t.Fatalf("error: %s", ErrName(e))
	}
	if buf[0] != 255 || buf[1] != 128 || buf[2] != 0 || buf[3] != 255 {
		t.Errorf("pixel = %v, want (255,128,0,255)", buf[:4])
	}
}

func TestDrawConstantColor(t *testing.T) {
	env := newEnv(t, device.Generic(), 16, 16, false)
	gl := env.gl
	p := buildProgram(t, gl, quadVS, `
precision mediump float;
void main(){ gl_FragColor = vec4(0.25, 0.5, 0.75, 1.0); }`)
	drawQuad(t, gl, p)
	buf := make([]byte, 16*16*4)
	gl.ReadPixels(0, 0, 16, 16, RGBA, UNSIGNED_BYTE, buf)
	for i := 0; i < len(buf); i += 4 {
		if buf[i] != 64 || buf[i+1] != 128 || buf[i+2] != 191 || buf[i+3] != 255 {
			t.Fatalf("pixel %d = %v", i/4, buf[i:i+4])
		}
	}
}

func TestVaryingGradient(t *testing.T) {
	env := newEnv(t, device.Generic(), 8, 8, false)
	gl := env.gl
	p := buildProgram(t, gl, quadVS, `
precision mediump float;
varying vec2 v_tex;
void main(){ gl_FragColor = vec4(v_tex, 0.0, 1.0); }`)
	drawQuad(t, gl, p)
	buf := make([]byte, 8*8*4)
	gl.ReadPixels(0, 0, 8, 8, RGBA, UNSIGNED_BYTE, buf)
	// Pixel (0,0) center → v_tex = (0.5/8, 0.5/8) ≈ 0.0625 → byte 16.
	if got := buf[0]; got < 14 || got > 18 {
		t.Errorf("corner red = %d, want ~16", got)
	}
	// Pixel (7,0): u = 7.5/8 = 0.9375 → byte 239.
	if got := buf[7*4]; got < 237 || got > 241 {
		t.Errorf("edge red = %d, want ~239", got)
	}
	// v increases with y.
	if buf[7*8*4+1] <= buf[1] {
		t.Error("green channel did not increase with y")
	}
}

func TestTextureSampling(t *testing.T) {
	env := newEnv(t, device.Generic(), 4, 4, false)
	gl := env.gl
	tex := gl.GenTexture()
	gl.BindTexture(TEXTURE_2D, tex)
	gl.TexParameteri(TEXTURE_2D, TEXTURE_MIN_FILTER, NEAREST)
	gl.TexParameteri(TEXTURE_2D, TEXTURE_MAG_FILTER, NEAREST)
	gl.TexParameteri(TEXTURE_2D, TEXTURE_WRAP_S, CLAMP_TO_EDGE)
	gl.TexParameteri(TEXTURE_2D, TEXTURE_WRAP_T, CLAMP_TO_EDGE)
	data := make([]byte, 4*4*4)
	for i := range data {
		data[i] = byte(i)
	}
	gl.TexImage2D(TEXTURE_2D, 0, RGBA, 4, 4, RGBA, UNSIGNED_BYTE, data)
	p := buildProgram(t, gl, quadVS, `
precision mediump float;
uniform sampler2D tex;
varying vec2 v_tex;
void main(){ gl_FragColor = texture2D(tex, v_tex); }`)
	gl.UseProgram(p)
	gl.Uniform1i(gl.GetUniformLocation(p, "tex"), 0)
	drawQuad(t, gl, p)
	buf := make([]byte, 4*4*4)
	gl.ReadPixels(0, 0, 4, 4, RGBA, UNSIGNED_BYTE, buf)
	// 4x4 target sampling a 4x4 texture 1:1 with NEAREST: identity copy.
	for i := range buf {
		if buf[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, buf[i], data[i])
		}
	}
}

func TestRenderToTextureAndSample(t *testing.T) {
	env := newEnv(t, device.Generic(), 8, 8, false)
	gl := env.gl
	// Pass 1: render 0.5 into a texture via FBO.
	tex := gl.GenTexture()
	gl.BindTexture(TEXTURE_2D, tex)
	gl.TexParameteri(TEXTURE_2D, TEXTURE_MIN_FILTER, NEAREST)
	gl.TexParameteri(TEXTURE_2D, TEXTURE_MAG_FILTER, NEAREST)
	gl.TexImage2D(TEXTURE_2D, 0, RGBA, 8, 8, RGBA, UNSIGNED_BYTE, nil)
	fbo := gl.GenFramebuffer()
	gl.BindFramebuffer(FRAMEBUFFER, fbo)
	gl.FramebufferTexture2D(FRAMEBUFFER, COLOR_ATTACHMENT0, TEXTURE_2D, tex, 0)
	if st := gl.CheckFramebufferStatus(FRAMEBUFFER); st != FRAMEBUFFER_COMPLETE {
		t.Fatalf("fbo status %x", st)
	}
	p1 := buildProgram(t, gl, quadVS, `
precision mediump float;
void main(){ gl_FragColor = vec4(0.5); }`)
	drawQuad(t, gl, p1)
	// Pass 2: sample it, doubled, to the default framebuffer.
	gl.BindFramebuffer(FRAMEBUFFER, 0)
	p2 := buildProgram(t, gl, quadVS, `
precision mediump float;
uniform sampler2D tex;
varying vec2 v_tex;
void main(){ gl_FragColor = texture2D(tex, v_tex) * 2.0; }`)
	gl.UseProgram(p2)
	gl.Uniform1i(gl.GetUniformLocation(p2, "tex"), 0)
	drawQuad(t, gl, p2)
	buf := make([]byte, 8*8*4)
	gl.ReadPixels(0, 0, 8, 8, RGBA, UNSIGNED_BYTE, buf)
	// 0.5 stored as 128/255, doubled = 1.004 → clamped 255.
	if buf[0] != 255 {
		t.Errorf("pixel = %d, want 255", buf[0])
	}
}

func TestCopyTexImage2DFunctional(t *testing.T) {
	env := newEnv(t, device.Generic(), 8, 8, false)
	gl := env.gl
	gl.ClearColor(0.2, 0.4, 0.6, 1)
	gl.Clear(COLOR_BUFFER_BIT)
	tex := gl.GenTexture()
	gl.BindTexture(TEXTURE_2D, tex)
	gl.CopyTexImage2D(TEXTURE_2D, 0, RGBA, 0, 0, 8, 8, 0)
	if e := gl.GetError(); e != NO_ERROR {
		t.Fatalf("copy error: %s", ErrName(e))
	}
	data := gl.TextureData(tex)
	if len(data) != 8*8*4 {
		t.Fatalf("texture data %d bytes", len(data))
	}
	if data[0] != 51 || data[1] != 102 || data[2] != 153 {
		t.Errorf("copied pixel = %v", data[:4])
	}
	// Sub-variant into existing storage.
	gl.ClearColor(1, 1, 1, 1)
	gl.Clear(COLOR_BUFFER_BIT)
	gl.CopyTexSubImage2D(TEXTURE_2D, 0, 0, 0, 0, 0, 4, 4)
	if e := gl.GetError(); e != NO_ERROR {
		t.Fatalf("subcopy error: %s", ErrName(e))
	}
	data = gl.TextureData(tex)
	if data[0] != 255 {
		t.Error("sub-copy did not update texel (0,0)")
	}
	// Outside the 4x4 region: old value.
	off := (5*8 + 5) * 4
	if data[off] != 51 {
		t.Error("sub-copy overwrote outside its region")
	}
}

func TestVBODrawPath(t *testing.T) {
	env := newEnv(t, device.Generic(), 4, 4, false)
	gl := env.gl
	p := buildProgram(t, gl, quadVS, `
precision mediump float;
void main(){ gl_FragColor = vec4(1.0); }`)
	gl.UseProgram(p)
	vbo := gl.GenBuffer()
	gl.BindBuffer(ARRAY_BUFFER, vbo)
	quad := []float32{-1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1}
	gl.BufferData(ARRAY_BUFFER, Float32Bytes(quad), STATIC_DRAW)
	loc := gl.GetAttribLocation(p, "a_pos")
	gl.EnableVertexAttribArray(loc)
	gl.VertexAttribPointer(loc, 2, FLOAT, 0, 0)
	gl.DrawArrays(TRIANGLES, 0, 6)
	if e := gl.GetError(); e != NO_ERROR {
		t.Fatalf("vbo draw error: %s", ErrName(e))
	}
	buf := make([]byte, 4*4*4)
	gl.ReadPixels(0, 0, 4, 4, RGBA, UNSIGNED_BYTE, buf)
	if buf[0] != 255 {
		t.Error("vbo draw produced nothing")
	}
}

func TestTriangleStripAndFan(t *testing.T) {
	for _, mode := range []Enum{TRIANGLE_STRIP, TRIANGLE_FAN} {
		env := newEnv(t, device.Generic(), 8, 8, false)
		gl := env.gl
		p := buildProgram(t, gl, quadVS, `
precision mediump float;
void main(){ gl_FragColor = vec4(1.0); }`)
		gl.UseProgram(p)
		var quad []float32
		if mode == TRIANGLE_STRIP {
			quad = []float32{-1, -1, 1, -1, -1, 1, 1, 1}
		} else {
			quad = []float32{-1, -1, 1, -1, 1, 1, -1, 1}
		}
		loc := gl.GetAttribLocation(p, "a_pos")
		gl.EnableVertexAttribArray(loc)
		gl.VertexAttribPointerClient(loc, 2, quad, 0, 0)
		gl.DrawArrays(mode, 0, 4)
		buf := make([]byte, 8*8*4)
		gl.ReadPixels(0, 0, 8, 8, RGBA, UNSIGNED_BYTE, buf)
		for i := 0; i < len(buf); i += 4 {
			if buf[i] != 255 {
				t.Fatalf("mode %x: pixel %d uncovered", mode, i/4)
			}
		}
	}
}

func TestColorMaskFP24(t *testing.T) {
	env := newEnv(t, device.Generic(), 4, 4, false)
	gl := env.gl
	gl.ClearColor(0, 0, 0, 0)
	gl.Clear(COLOR_BUFFER_BIT)
	p := buildProgram(t, gl, quadVS, `
precision mediump float;
void main(){ gl_FragColor = vec4(1.0); }`)
	gl.ColorMask(true, true, true, false)
	drawQuad(t, gl, p)
	buf := make([]byte, 4*4*4)
	gl.ReadPixels(0, 0, 4, 4, RGBA, UNSIGNED_BYTE, buf)
	if buf[0] != 255 || buf[3] != 0 {
		t.Errorf("pixel = %v, want alpha preserved at 0", buf[:4])
	}
}

func TestLinkErrors(t *testing.T) {
	env := newEnv(t, device.Generic(), 4, 4, false)
	gl := env.gl
	// Fragment shader consumes a varying the VS does not write.
	vs := gl.CreateShader(VERTEX_SHADER)
	gl.ShaderSource(vs, `
attribute vec2 a_pos;
void main(){ gl_Position = vec4(a_pos, 0.0, 1.0); }`)
	gl.CompileShader(vs)
	fs := gl.CreateShader(FRAGMENT_SHADER)
	gl.ShaderSource(fs, `
precision mediump float;
varying vec2 v_missing;
void main(){ gl_FragColor = vec4(v_missing, 0.0, 1.0); }`)
	gl.CompileShader(fs)
	p := gl.CreateProgram()
	gl.AttachShader(p, vs)
	gl.AttachShader(p, fs)
	gl.LinkProgram(p)
	if gl.GetProgramiv(p, LINK_STATUS) != 0 {
		t.Fatal("link succeeded with unmatched varying")
	}
	if !strings.Contains(gl.GetProgramInfoLog(p), "v_missing") {
		t.Errorf("log: %s", gl.GetProgramInfoLog(p))
	}
}

// TestRelinkDrawnProgram relinks a program that has already drawn with
// shaders that use more registers: its next draw must run on the new
// shaders, with execution state sized for them.
func TestRelinkDrawnProgram(t *testing.T) {
	env := newEnv(t, device.Generic(), 8, 8, false)
	gl := env.gl
	p := buildProgram(t, gl, quadVS, `
precision mediump float;
void main() { gl_FragColor = vec4(0.5); }`)
	drawQuad(t, gl, p)
	vs := gl.CreateShader(VERTEX_SHADER)
	gl.ShaderSource(vs, `
attribute vec2 a_pos;
attribute vec4 a_col;
varying vec4 v_col;
void main() { gl_Position = vec4(a_pos, 0.0, 1.0); v_col = a_col; }`)
	gl.CompileShader(vs)
	fs := gl.CreateShader(FRAGMENT_SHADER)
	gl.ShaderSource(fs, `
precision mediump float;
varying vec4 v_col;
void main() { gl_FragColor = v_col; }`)
	gl.CompileShader(fs)
	gl.AttachShader(p, vs)
	gl.AttachShader(p, fs)
	gl.LinkProgram(p)
	if gl.GetProgramiv(p, LINK_STATUS) != 1 {
		t.Fatalf("relink: %s", gl.GetProgramInfoLog(p))
	}
	gl.UseProgram(p)
	col := gl.GetAttribLocation(p, "a_col")
	cols := make([]float32, 6*4)
	for i := range cols {
		cols[i] = 1
	}
	gl.EnableVertexAttribArray(col)
	gl.VertexAttribPointerClient(col, 4, cols, 0, 0)
	drawQuad(t, gl, p)
	px := make([]byte, 4)
	gl.ReadPixels(0, 0, 1, 1, RGBA, UNSIGNED_BYTE, px)
	if px[0] != 255 || px[3] != 255 {
		t.Errorf("relinked program drew %v, want opaque white", px)
	}
}

func TestCompileLimitFailure(t *testing.T) {
	// VideoCore profile allows 40 texture accesses: a 64-iteration
	// texture loop must fail to compile, like the paper's block-32 sgemm.
	env := newEnv(t, device.VideoCoreIV(), 4, 4, false)
	gl := env.gl
	fs := gl.CreateShader(FRAGMENT_SHADER)
	gl.ShaderSource(fs, `
precision mediump float;
uniform sampler2D t0;
varying vec2 v_tex;
void main(){
	float acc = 0.0;
	for (int i = 0; i < 64; i++) { acc += texture2D(t0, v_tex).x; }
	gl_FragColor = vec4(acc);
}`)
	gl.CompileShader(fs)
	if gl.GetShaderiv(fs, COMPILE_STATUS) != 0 {
		t.Fatal("shader exceeding texture-access limit compiled")
	}
	if !strings.Contains(gl.GetShaderInfoLog(fs), "limit") {
		t.Errorf("log: %s", gl.GetShaderInfoLog(fs))
	}
}

func TestErrorModel(t *testing.T) {
	env := newEnv(t, device.Generic(), 4, 4, false)
	gl := env.gl
	gl.DrawArrays(TRIANGLES, 0, 3) // no program
	if e := gl.GetError(); e != INVALID_OPERATION {
		t.Errorf("draw without program: %s", ErrName(e))
	}
	if e := gl.GetError(); e != NO_ERROR {
		t.Error("GetError did not clear")
	}
	gl.BindTexture(TEXTURE_2D, 9999)
	if e := gl.GetError(); e != INVALID_OPERATION {
		t.Errorf("bad bind: %s", ErrName(e))
	}
	gl.TexImage2D(TEXTURE_2D, 0, RGBA, -1, 4, RGBA, UNSIGNED_BYTE, nil)
	if e := gl.GetError(); e == NO_ERROR {
		t.Error("negative size accepted")
	}
	// Incomplete FBO draws fail.
	fbo := gl.GenFramebuffer()
	gl.BindFramebuffer(FRAMEBUFFER, fbo)
	if st := gl.CheckFramebufferStatus(FRAMEBUFFER); st == FRAMEBUFFER_COMPLETE {
		t.Error("empty FBO reported complete")
	}
}

func TestTimingOnlyReplayMatchesFunctional(t *testing.T) {
	run := func(iters int, timingOnlyAfterFirst bool) timing.Time {
		env := newEnv(t, device.Generic(), 32, 32, false)
		gl := env.gl
		p := buildProgram(t, gl, quadVS, `
precision mediump float;
varying vec2 v_tex;
void main(){ gl_FragColor = vec4(v_tex, 0.5, 1.0); }`)
		gl.UseProgram(p)
		loc := gl.GetAttribLocation(p, "a_pos")
		quad := []float32{-1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1}
		gl.EnableVertexAttribArray(loc)
		gl.VertexAttribPointerClient(loc, 2, quad, 0, 0)
		for i := 0; i < iters; i++ {
			if timingOnlyAfterFirst && i == 1 {
				gl.SetTimingOnly(true)
			}
			gl.Clear(COLOR_BUFFER_BIT)
			gl.DrawArrays(TRIANGLES, 0, 6)
		}
		gl.Finish()
		return gl.Machine().Now()
	}
	full := run(6, false)
	replay := run(6, true)
	if full != replay {
		t.Errorf("timing-only replay %v != functional %v", replay, full)
	}
}

func TestTextureReuseAvoidsAllocation(t *testing.T) {
	env := newEnv(t, device.VideoCoreIV(), 8, 8, false)
	gl := env.gl
	tex := gl.GenTexture()
	gl.BindTexture(TEXTURE_2D, tex)
	data := make([]byte, 8*8*4)
	gl.TexImage2D(TEXTURE_2D, 0, RGBA, 8, 8, RGBA, UNSIGNED_BYTE, data)
	allocs := gl.Allocator().TotalAllocs
	gl.TexSubImage2D(TEXTURE_2D, 0, 0, 0, 8, 8, RGBA, UNSIGNED_BYTE, data)
	if gl.Allocator().TotalAllocs != allocs {
		t.Error("TexSubImage2D allocated")
	}
	gl.TexImage2D(TEXTURE_2D, 0, RGBA, 8, 8, RGBA, UNSIGNED_BYTE, data)
	if gl.Allocator().TotalAllocs != allocs+1 {
		t.Error("TexImage2D did not reallocate")
	}
	if gl.Allocator().LiveCount() != 1 {
		t.Errorf("live allocations = %d, want 1 (old storage orphaned)", gl.Allocator().LiveCount())
	}
}

func TestGetString(t *testing.T) {
	env := newEnv(t, device.PowerVRSGX545(), 4, 4, false)
	gl := env.gl
	if !strings.Contains(gl.GetString(0x1F01), "SGX") {
		t.Error("renderer string wrong")
	}
	if !strings.Contains(gl.GetString(0x1F03), "GL_EXT_discard_framebuffer") {
		t.Error("extensions string missing discard")
	}
}
