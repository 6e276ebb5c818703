package gles

import (
	"bytes"
	"fmt"
	"testing"

	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/shader"
	"gles2gpgpu/internal/shader/analysis"
)

// Fast-path parity: every draw scenario shaded by the tiled lane-batched
// fast path, serially and on four workers, coherent or not, must reproduce the
// per-fragment interpreter loop (the oracle, forced through the
// interpOnly hook) byte for byte in the framebuffer and exactly in the
// fragment, Cycles and TexFetches counters.

// drawOutcome captures everything a draw scenario produces that the fast
// path must reproduce bit-for-bit.
type drawOutcome struct {
	pixels     []byte
	fragments  int64
	cycles     int64
	texFetches int64
	fallbacks  int64 // LaneFallbackDraws after the scenario
}

// runScenario executes scenario on a fresh w×h context with the given
// worker count, on the interpreter loop when interp is set, and returns
// the framebuffer plus the measured stats of the scenario's returned
// program.
func runScenario(t *testing.T, workers int, interp bool, w, h int, scenario func(gl *Context) uint32) drawOutcome {
	t.Helper()
	env := newEnv(t, device.Generic(), w, h, false)
	gl := env.gl
	gl.SetWorkers(workers)
	gl.interpOnly = interp
	defer gl.Destroy()
	prog := scenario(gl)
	if e := gl.GetError(); e != NO_ERROR {
		t.Fatalf("scenario error: %s", ErrName(e))
	}
	out := drawOutcome{pixels: make([]byte, w*h*4), fallbacks: gl.LaneFallbackDraws()}
	gl.ReadPixels(0, 0, w, h, RGBA, UNSIGNED_BYTE, out.pixels)
	var ok bool
	out.fragments, out.cycles, out.texFetches, ok = gl.DrawStatsFor(prog, w, h)
	if !ok {
		t.Fatal("no draw stats recorded")
	}
	return out
}

// expectSameOutcome fails the test on any difference between the oracle
// outcome and got.
func expectSameOutcome(t *testing.T, name string, ref, got drawOutcome) {
	t.Helper()
	if !bytes.Equal(ref.pixels, got.pixels) {
		for i := range ref.pixels {
			if ref.pixels[i] != got.pixels[i] {
				t.Fatalf("%s: framebuffers diverge at byte %d (pixel %d): oracle %d, got %d",
					name, i, i/4, ref.pixels[i], got.pixels[i])
			}
		}
	}
	if ref.fragments != got.fragments {
		t.Errorf("%s: fragments: oracle %d, got %d", name, ref.fragments, got.fragments)
	}
	if ref.cycles != got.cycles {
		t.Errorf("%s: cycles: oracle %d, got %d", name, ref.cycles, got.cycles)
	}
	if ref.texFetches != got.texFetches {
		t.Errorf("%s: tex fetches: oracle %d, got %d", name, ref.texFetches, got.texFetches)
	}
}

// expectParity runs the scenario on the interpreter loop and on the fast
// path at one and four workers, with the coherence cache on (the default;
// eligible draws record their tiles in the walk) and off. Every
// scenario's fragment program has a lane form, so the fast runs must
// count no lane fallback — otherwise the comparison would be the oracle
// against itself.
func expectParity(t *testing.T, w, h int, scenario func(gl *Context) uint32) {
	t.Helper()
	ref := runScenario(t, 1, true, w, h, scenario)
	for _, coherence := range []bool{true, false} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("fast-w%d-coherence=%v", workers, coherence)
			got := runScenario(t, workers, false, w, h, func(gl *Context) uint32 {
				gl.SetCoherence(coherence)
				return scenario(gl)
			})
			if got.fallbacks != 0 {
				t.Fatalf("%s: %d draws fell back to the interpreter", name, got.fallbacks)
			}
			expectSameOutcome(t, name, ref, got)
		}
	}
}

// checkerTexture builds a w×h RGBA texture with position-dependent bytes.
func checkerTexture(gl *Context, w, h int) uint32 {
	tex := gl.GenTexture()
	gl.BindTexture(TEXTURE_2D, tex)
	gl.TexParameteri(TEXTURE_2D, TEXTURE_MIN_FILTER, NEAREST)
	gl.TexParameteri(TEXTURE_2D, TEXTURE_MAG_FILTER, NEAREST)
	data := make([]byte, w*h*4)
	for i := range data {
		data[i] = byte(i*7 + i/9)
	}
	gl.TexImage2D(TEXTURE_2D, 0, RGBA, w, h, RGBA, UNSIGNED_BYTE, data)
	return tex
}

// texturedQuad draws a full-target quad with fs sampling a checker texture
// bound to u_tex.
func texturedQuad(t *testing.T, w, h int, fs string) func(gl *Context) uint32 {
	return func(gl *Context) uint32 {
		checkerTexture(gl, w, h)
		p := buildProgram(t, gl, quadVS, fs)
		gl.UseProgram(p)
		gl.Uniform1i(gl.GetUniformLocation(p, "u_tex"), 0)
		drawQuad(t, gl, p)
		return p
	}
}

// plainQuad draws a full-target quad with fs.
func plainQuad(t *testing.T, fs string) func(gl *Context) uint32 {
	return func(gl *Context) uint32 {
		p := buildProgram(t, gl, quadVS, fs)
		gl.UseProgram(p)
		drawQuad(t, gl, p)
		return p
	}
}

// overlappingQuads draws a full-target quad plus a second quad over part
// of it in one draw, blended with (src, dst): per-pixel shade order is
// observable, so the tile walk must preserve submission order.
func overlappingQuads(t *testing.T, fs string, src, dst Enum, second []float32) func(gl *Context) uint32 {
	return func(gl *Context) uint32 {
		p := buildProgram(t, gl, quadVS, fs)
		gl.UseProgram(p)
		gl.Enable(BLEND)
		gl.BlendFunc(src, dst)
		loc := gl.GetAttribLocation(p, "a_pos")
		verts := append([]float32{-1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1}, second...)
		gl.EnableVertexAttribArray(loc)
		gl.VertexAttribPointerClient(loc, 2, verts, 0, 0)
		gl.DrawArrays(TRIANGLES, 0, len(verts)/2)
		return p
	}
}

// points draws one GL_POINTS primitive per vertex of verts (NDC x,y
// pairs) with gl_PointSize size and fs, optionally additively blended.
func points(t *testing.T, size string, fs string, blend bool, verts []float32) func(gl *Context) uint32 {
	return func(gl *Context) uint32 {
		p := buildProgram(t, gl, `
attribute vec2 a_pos;
varying vec2 v_val;
void main() {
	gl_Position = vec4(a_pos, 0.0, 1.0);
	gl_PointSize = `+size+`;
	v_val = a_pos * 0.5 + 0.5;
}`, fs)
		if blend {
			gl.Enable(BLEND)
			gl.BlendFunc(ONE, ONE)
		}
		gl.UseProgram(p)
		loc := gl.GetAttribLocation(p, "a_pos")
		gl.EnableVertexAttribArray(loc)
		gl.VertexAttribPointerClient(loc, 2, verts, 0, 0)
		gl.DrawArrays(POINTS, 0, len(verts)/2)
		return p
	}
}

// histogram is the scatter-add idiom's geometry on an n-wide target:
// 2048 points onto four buckets, 512 hits each.
func histogram(n int) []float32 {
	var verts []float32
	for i := 0; i < 2048; i++ {
		bucket := float32(i%4)*8 + 16
		verts = append(verts, (bucket+0.5)/float32(n)*2-1, 0.5)
	}
	return verts
}

func TestFastPathParity(t *testing.T) {
	const n = 128
	// A 64×64 grid of size-1 points on a 128×128 target: pairwise-disjoint
	// footprints.
	var grid []float32
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			grid = append(grid,
				(2*float32(x)+0.5)/float32(n)*2-1,
				(2*float32(y)+0.5)/float32(n)*2-1)
		}
	}
	cases := []struct {
		name     string
		w, h     int
		scenario func(gl *Context) uint32
	}{
		// A texturing, loop-unrolled kernel — the shape of every GPGPU
		// kernel — well past the parallel gate.
		{"textured-quad", n, n, texturedQuad(t, n, n, `
precision mediump float;
varying vec2 v_tex;
uniform sampler2D u_tex;
void main() {
	vec4 s = texture2D(u_tex, v_tex);
	float acc = 0.0;
	for (int i = 0; i < 4; i++) {
		acc += s.x * 0.3 + v_tex.y * 0.1;
	}
	gl_FragColor = vec4(fract(acc), s.yz, 1.0);
}`)},
		// The same kernel at 64×64: four tiles, exactly at the parallel
		// gate.
		{"textured-quad-64", 64, 64, texturedQuad(t, 64, 64, `
precision mediump float;
varying vec2 v_tex;
uniform sampler2D u_tex;
void main() {
	vec4 s = texture2D(u_tex, v_tex);
	float acc = 0.0;
	for (int i = 0; i < 4; i++) {
		acc += s.x * 0.3 + v_tex.y * 0.1;
	}
	gl_FragColor = vec4(fract(acc), s.yz, 1.0);
}`)},
		// A loop-free sampling kernel over sixteen tiles.
		{"textured-sample", n, n, texturedQuad(t, n, n, `
precision mediump float;
varying vec2 v_tex;
uniform sampler2D u_tex;
void main() {
	vec4 s = texture2D(u_tex, v_tex);
	gl_FragColor = vec4(s.xy, fract(s.z + v_tex.x), 1.0);
}`)},
		// Float64-path ops (sin, pow, inversesqrt) must round identically.
		{"transcendental", 64, 64, plainQuad(t, `
precision mediump float;
varying vec2 v_tex;
void main() {
	float a = sin(v_tex.x * 6.28) * 0.5 + 0.5;
	float b = pow(v_tex.y + 0.1, 2.2);
	float c = inversesqrt(v_tex.x + 1.0);
	gl_FragColor = vec4(a, fract(b), fract(c), 1.0);
}`)},
		// 100×84 exercises partial edge tiles and rejects the quad fast
		// path (area2 not a power of two), so the reference interpolator
		// runs too.
		{"npot-viewport", 100, 84, texturedQuad(t, 100, 84, `
precision mediump float;
varying vec2 v_tex;
uniform sampler2D u_tex;
void main() {
	gl_FragColor = texture2D(u_tex, v_tex);
}`)},
		{"overlap-additive", n, n, overlappingQuads(t, `
precision mediump float;
varying vec2 v_tex;
void main() { gl_FragColor = vec4(v_tex * 0.3, 0.2, 0.25); }`, ONE, ONE,
			[]float32{-0.5, -0.5, 1, -0.5, 1, 1, -0.5, -0.5, 1, 1, -0.5, 1})},
		{"overlap-alpha", n, n, overlappingQuads(t, `
precision mediump float;
varying vec2 v_tex;
void main() {
	gl_FragColor = vec4(v_tex.x * 0.4, v_tex.y * 0.4, 0.2, 0.5);
}`, SRC_ALPHA, ONE_MINUS_SRC_ALPHA,
			[]float32{-0.75, -0.75, 0.9, -0.6, 0.8, 0.85, -0.75, -0.75, 0.8, 0.85, -0.9, 0.7})},
		// 91 fragments: not a multiple of the lane width, so the draw ends
		// with a partial final batch.
		{"partial-batch", 13, 7, plainQuad(t, `
precision mediump float;
varying vec2 v_tex;
void main() {
	float a = v_tex.x * 3.0 + v_tex.y;
	gl_FragColor = vec4(fract(a), v_tex, 1.0);
}`)},
		// Discard runs on the lane engine with per-lane death; killed
		// fragments still cost their cycles.
		{"discard", 64, 64, plainQuad(t, `
precision mediump float;
varying vec2 v_tex;
void main() {
	if (v_tex.x > 0.5) discard;
	gl_FragColor = vec4(v_tex, 0.5, 1.0);
}`)},
		// Dead assignments, a copy of a uniform, constant subexpressions,
		// texturing and an unrolled loop in one straight-line kernel.
		{"dead-and-copies", 64, 64, func(gl *Context) uint32 {
			checkerTexture(gl, 64, 64)
			p := buildProgram(t, gl, quadVS, `
precision mediump float;
varying vec2 v_tex;
uniform sampler2D u_tex;
uniform float u_k;
void main() {
	float dead = v_tex.x * 3.0 + u_k;
	dead = dead * dead;
	float copy = u_k;
	float folded = (0.25 + 0.5) * 0.5;
	vec4 s = texture2D(u_tex, v_tex);
	float acc = 0.0;
	for (int i = 0; i < 4; i++) {
		acc += s.x * copy + folded;
	}
	gl_FragColor = vec4(fract(acc), s.yz, 1.0);
}`)
			gl.UseProgram(p)
			gl.Uniform1i(gl.GetUniformLocation(p, "u_tex"), 0)
			gl.Uniform1f(gl.GetUniformLocation(p, "u_k"), 0.37)
			drawQuad(t, gl, p)
			return p
		}},
		// A dead assignment ahead of a data-dependent discard: killed
		// fragments still charge the dead instruction's cycles.
		{"dead-discard", 64, 64, plainQuad(t, `
precision mediump float;
varying vec2 v_tex;
void main() {
	float unused = v_tex.y * 9.0;
	if (v_tex.x > 0.5) discard;
	gl_FragColor = vec4(v_tex, 0.5, 1.0);
}`)},
		// A data-dependent if/else (the jacobi shape) compiles to real
		// control flow and diverges per lane on the lane engine.
		{"branchy", 32, 32, plainQuad(t, `
precision mediump float;
varying vec2 v_tex;
void main() {
	float v;
	if (v_tex.x + v_tex.y > 0.9) {
		v = v_tex.x * 0.25;
	} else {
		v = v_tex.y * 4.0;
	}
	gl_FragColor = vec4(fract(v), v_tex, 1.0);
}`)},
		// A fetch under a varying if on a 100-wide target: the x = 50
		// boundary splits lane batches, so the TEX segment runs for part
		// of a batch and must fetch for its active lanes only.
		{"tex-under-branch", 100, 84, texturedQuad(t, 100, 84, `
precision mediump float;
varying vec2 v_tex;
uniform sampler2D u_tex;
void main() {
	vec4 c = vec4(v_tex, 0.25, 1.0);
	if (v_tex.x > 0.5) {
		c = texture2D(u_tex, v_tex.yx);
	}
	gl_FragColor = c;
}`)},
		{"points-disjoint", n, n, points(t, "1.0", `
precision mediump float;
varying vec2 v_val;
void main() { gl_FragColor = vec4(v_val, fract(v_val.x * 13.0), 1.0); }`, false, grid)},
		{"points-overlap", n, n, points(t, "2.0", `
precision mediump float;
void main() { gl_FragColor = vec4(1.0/255.0); }`, true, histogram(n))},
		// A size-4 point centred on the window origin hangs two pixels off
		// the left and bottom edges.
		{"points-negative-origin", 8, 8, points(t, "4.0", `
precision mediump float;
void main() { gl_FragColor = vec4(1.0, 0.0, 0.0, 1.0); }`, false, []float32{-1, -1})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expectParity(t, tc.w, tc.h, tc.scenario)
		})
	}
}

// TestFastPathPointsSaturate pins the histogram idiom's accumulation:
// 512 additive hits of 1/255 on one pixel must clamp to 255 exactly as
// serial blending does.
func TestFastPathPointsSaturate(t *testing.T) {
	const n = 128
	out := runScenario(t, 4, false, n, n, points(t, "2.0", `
precision mediump float;
void main() { gl_FragColor = vec4(1.0/255.0); }`, true, histogram(n)))
	if bytes.IndexByte(out.pixels, 255) < 0 {
		t.Error("expected saturated histogram buckets")
	}
}

// TestLaneFallbackCounter pins the fallback accounting: a program without
// the liveness proofs has no lane form, so its draw shades on the
// interpreter and counts a fallback; straight-line and forward-branching
// programs take the fast path and leave the counter at zero. On every row
// glslint's lane finding agrees with the draw: both read
// shader.LaneFallbackAt.
func TestLaneFallbackCounter(t *testing.T) {
	const n = 32
	cases := []struct {
		name, fs string
		want     int64
	}{
		{"straight", `
precision mediump float;
varying vec2 v_tex;
void main() {
	gl_FragColor = vec4(v_tex, 0.0, 1.0);
}`, 0},
		{"branchy", `
precision mediump float;
varying vec2 v_tex;
void main() {
	float v = 0.0;
	if (v_tex.x > 0.5) {
		v = v_tex.y;
	}
	gl_FragColor = vec4(v, v_tex, 1.0);
}`, 0},
		// gl_FragColor written only on one path: OutputsAlwaysWritten fails.
		{"unproven", `
precision mediump float;
varying vec2 v_tex;
void main() {
	if (v_tex.x > 0.5) {
		gl_FragColor = vec4(v_tex, 0.0, 1.0);
	}
}`, 1},
		// A temp written only on one path, read after the join:
		// WritesBeforeReads fails.
		{"uninit", `
precision mediump float;
varying vec2 v_tex;
void main() {
	float x;
	if (v_tex.x > 0.5) {
		x = v_tex.y;
	}
	gl_FragColor = vec4(x, v_tex, 1.0);
}`, 1},
	}
	for _, tc := range cases {
		var fp *shader.Program
		out := runScenario(t, 1, false, n, n, func(gl *Context) uint32 {
			p := plainQuad(t, tc.fs)(gl)
			fp = gl.ProgramFS(p)
			return p
		})
		if out.fallbacks != tc.want {
			t.Errorf("%s: %d lane fallbacks, want %d", tc.name, out.fallbacks, tc.want)
		}
		want := "lane-eligible"
		if out.fallbacks > 0 {
			want = "lane-fallback"
		}
		var got []string
		for _, f := range analysis.Lint(fp, nil) {
			if f.Code == "lane-eligible" || f.Code == "lane-fallback" {
				got = append(got, f.Code)
			}
		}
		if len(got) != 1 || got[0] != want {
			t.Errorf("%s: lint lane findings %v, want [%s] to match the draw", tc.name, got, want)
		}
	}
}
