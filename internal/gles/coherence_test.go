package gles

import (
	"bytes"
	"testing"

	"gles2gpgpu/internal/device"
)

// Adversarial coherence tests: a 64×64 target under the default 32-texel
// tiles gives exactly four tiles, and a 5-point stencil kernel gives each
// tile a footprint of its own pixel rect grown by a one-texel ring. That
// makes the invalidation set of a single poked texel exactly predictable:
// an interior texel re-shades one tile, a texel on a tile edge also re-shades
// the neighbour whose halo overlaps it, and the centre corner re-shades all
// four. Every step is mirrored on a coherence-off context and the two
// framebuffers and per-draw stats must stay byte-identical throughout.

const cohStencilFS = `
precision mediump float;
varying vec2 v_tex;
uniform sampler2D u_tex;
uniform float u_bias;
void main() {
	float px = 1.0 / 64.0;
	vec4 c = texture2D(u_tex, v_tex);
	vec4 l = texture2D(u_tex, v_tex + vec2(-px, 0.0));
	vec4 r = texture2D(u_tex, v_tex + vec2(px, 0.0));
	vec4 d = texture2D(u_tex, v_tex + vec2(0.0, -px));
	vec4 u = texture2D(u_tex, v_tex + vec2(0.0, px));
	gl_FragColor = (c + l + r + d + u) * 0.2 + vec4(u_bias);
}`

// cohTestCtx is one side of the mirrored pair.
type cohTestCtx struct {
	gl   *Context
	prog uint32
	tex  uint32
}

func newCohTestCtx(t *testing.T, n int, coherence bool) *cohTestCtx {
	t.Helper()
	return newCohTestCtxFS(t, n, coherence, cohStencilFS)
}

// newCohTestCtxFS is newCohTestCtx with another fragment shader sampling
// u_tex on unit 0.
func newCohTestCtxFS(t *testing.T, n int, coherence bool, fs string) *cohTestCtx {
	t.Helper()
	env := newEnv(t, device.Generic(), n, n, false)
	gl := env.gl
	gl.SetCoherence(coherence)
	tex := checkerTexture(gl, n, n)
	// Clamp instead of the REPEAT default: wrapped edge fetches would pull
	// the far side of the texture into every border tile's footprint.
	gl.TexParameteri(TEXTURE_2D, TEXTURE_WRAP_S, CLAMP_TO_EDGE)
	gl.TexParameteri(TEXTURE_2D, TEXTURE_WRAP_T, CLAMP_TO_EDGE)
	prog := buildProgram(t, gl, quadVS, fs)
	gl.UseProgram(prog)
	gl.Uniform1i(gl.GetUniformLocation(prog, "u_tex"), 0)
	return &cohTestCtx{gl: gl, prog: prog, tex: tex}
}

func (c *cohTestCtx) poke(x, y int, data []byte) {
	c.gl.BindTexture(TEXTURE_2D, c.tex)
	c.gl.TexSubImage2D(TEXTURE_2D, 0, x, y, 1, 1, RGBA, UNSIGNED_BYTE, data)
}

func (c *cohTestCtx) bias(v float32) {
	c.gl.UseProgram(c.prog)
	c.gl.Uniform1f(c.gl.GetUniformLocation(c.prog, "u_bias"), v)
}

// draw renders the quad and returns the framebuffer, the per-draw stats and
// the elided/shaded counter deltas of this draw.
func (c *cohTestCtx) draw(t *testing.T, n int) (pixels []byte, out drawOutcome, elided, shaded int64) {
	t.Helper()
	e0, s0 := c.gl.CoherenceStats()
	drawQuad(t, c.gl, c.prog)
	if e := c.gl.GetError(); e != NO_ERROR {
		t.Fatalf("draw error: %s", ErrName(e))
	}
	pixels = make([]byte, n*n*4)
	c.gl.ReadPixels(0, 0, n, n, RGBA, UNSIGNED_BYTE, pixels)
	var ok bool
	out.fragments, out.cycles, out.texFetches, ok = c.gl.DrawStatsFor(c.prog, n, n)
	if !ok {
		t.Fatal("no draw stats recorded")
	}
	e1, s1 := c.gl.CoherenceStats()
	return pixels, out, e1 - e0, s1 - s0
}

// TestCoherenceSingleTexelInvalidation walks the adversarial poke sequence,
// asserting the exact elided/shaded split per draw and bit-identity with a
// coherence-off mirror at every step.
func TestCoherenceSingleTexelInvalidation(t *testing.T) {
	const n = 64 // 2×2 tiles of tileSize (32)
	coh := newCohTestCtx(t, n, true)
	defer coh.gl.Destroy()
	ref := newCohTestCtx(t, n, false)
	defer ref.gl.Destroy()

	steps := []struct {
		name           string
		mutate         func(c *cohTestCtx)
		elided, shaded int64
	}{
		// Cold cache: every tile shades.
		{"first draw", nil, 0, 4},
		// Nothing changed: every tile replays.
		{"repeat", nil, 4, 0},
		// Interior texel of tile (0,0): only that tile's footprint sees it.
		{"poke interior (16,16)", func(c *cohTestCtx) {
			c.poke(16, 16, []byte{1, 2, 3, 4})
		}, 3, 1},
		{"repeat after interior poke", nil, 4, 0},
		// Texel (31,16) is inside tile (0,0) and inside the one-texel halo
		// of tile (32,0): both re-shade.
		{"poke tile edge (31,16)", func(c *cohTestCtx) {
			c.poke(31, 16, []byte{5, 6, 7, 8})
		}, 2, 2},
		// Texel (32,32) sits in the halos of all four tiles.
		{"poke centre corner (32,32)", func(c *cohTestCtx) {
			c.poke(32, 32, []byte{9, 10, 11, 12})
		}, 0, 4},
		// A uniform change alters the draw signature: full re-shade, then
		// the refreshed cache replays again.
		{"uniform change", func(c *cohTestCtx) { c.bias(0.125) }, 0, 4},
		{"repeat after uniform change", nil, 4, 0},
	}
	for _, st := range steps {
		if st.mutate != nil {
			st.mutate(coh)
			st.mutate(ref)
		}
		pixels, stats, elided, shaded := coh.draw(t, n)
		wantPixels, wantStats, refElided, _ := ref.draw(t, n)
		if !bytes.Equal(pixels, wantPixels) {
			for i := range pixels {
				if pixels[i] != wantPixels[i] {
					t.Fatalf("%s: framebuffers diverge at byte %d (pixel %d): coherent %d, reference %d",
						st.name, i, i/4, pixels[i], wantPixels[i])
				}
			}
		}
		if stats.fragments != wantStats.fragments || stats.cycles != wantStats.cycles ||
			stats.texFetches != wantStats.texFetches {
			t.Errorf("%s: draw stats diverge: coherent frags=%d cycles=%d tex=%d, reference frags=%d cycles=%d tex=%d",
				st.name, stats.fragments, stats.cycles, stats.texFetches,
				wantStats.fragments, wantStats.cycles, wantStats.texFetches)
		}
		if elided != st.elided || shaded != st.shaded {
			t.Errorf("%s: got %d elided / %d shaded tiles, want %d / %d",
				st.name, elided, shaded, st.elided, st.shaded)
		}
		if refElided != 0 {
			t.Errorf("%s: reference context elided %d tiles with coherence off", st.name, refElided)
		}
	}
}

// TestCoherenceIneligibleDraws verifies the gate: a draw that blends, or
// has a sampler slot whose footprint the proof does not cover, must bypass
// the cache entirely (counters frozen) while matching a coherence-off
// mirror byte for byte, stats included.
func TestCoherenceIneligibleDraws(t *testing.T) {
	const n = 64
	rows := []struct {
		name  string
		fs    string
		setup func(gl *Context)
	}{
		{"blend", cohStencilFS, func(gl *Context) { gl.Enable(BLEND) }},
		{"repeat wrap", cohStencilFS, func(gl *Context) {
			gl.TexParameteri(TEXTURE_2D, TEXTURE_WRAP_S, REPEAT)
			gl.TexParameteri(TEXTURE_2D, TEXTURE_WRAP_T, REPEAT)
		}},
		{"linear filter", cohStencilFS, func(gl *Context) {
			gl.TexParameteri(TEXTURE_2D, TEXTURE_MIN_FILTER, LINEAR)
			gl.TexParameteri(TEXTURE_2D, TEXTURE_MAG_FILTER, LINEAR)
		}},
		{"dependent fetch", `
precision mediump float;
varying vec2 v_tex;
uniform sampler2D u_tex;
void main() {
	gl_FragColor = texture2D(u_tex, texture2D(u_tex, v_tex).xy);
}`, nil},
		{"gl_FragCoord.w coordinate", `
precision mediump float;
uniform sampler2D u_tex;
void main() {
	gl_FragColor = texture2D(u_tex, vec2(gl_FragCoord.w * 0.5, 0.25));
}`, nil},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			coh := newCohTestCtxFS(t, n, true, row.fs)
			defer coh.gl.Destroy()
			ref := newCohTestCtxFS(t, n, false, row.fs)
			defer ref.gl.Destroy()
			if row.setup != nil {
				row.setup(coh.gl)
				row.setup(ref.gl)
			}
			for i := 0; i < 3; i++ {
				pixels, stats, _, _ := coh.draw(t, n)
				wantPixels, wantStats, _, _ := ref.draw(t, n)
				if !bytes.Equal(pixels, wantPixels) {
					t.Fatalf("draw %d: framebuffer differs from the coherence-off mirror", i)
				}
				if stats.fragments != wantStats.fragments || stats.cycles != wantStats.cycles ||
					stats.texFetches != wantStats.texFetches {
					t.Fatalf("draw %d: frags=%d cycles=%d tex=%d, coherence-off mirror frags=%d cycles=%d tex=%d",
						i, stats.fragments, stats.cycles, stats.texFetches,
						wantStats.fragments, wantStats.cycles, wantStats.texFetches)
				}
			}
			if elided, shaded := coh.gl.CoherenceStats(); elided != 0 || shaded != 0 {
				t.Errorf("ineligible draws touched the coherence cache: %d elided, %d shaded", elided, shaded)
			}
			if elided, shaded := ref.gl.CoherenceStats(); elided != 0 || shaded != 0 {
				t.Errorf("disabled cache still counted: %d elided, %d shaded", elided, shaded)
			}
		})
	}
}

// TestCoherencePingPongTextures models the stepping pattern the cache is
// for: two texture objects alternating as source. Once the state reaches a
// fixed point, draws elide even though the bound texture NAME changes every
// iteration — the key deliberately excludes texture identity.
func TestCoherencePingPongTextures(t *testing.T) {
	const n = 64
	env := newEnv(t, device.Generic(), n, n, false)
	gl := env.gl
	defer gl.Destroy()
	gl.SetCoherence(true)

	// Two identical-content textures standing in for a converged ping-pong
	// pair.
	data := make([]byte, n*n*4)
	for i := range data {
		data[i] = byte(i * 13)
	}
	mkTex := func() uint32 {
		tex := gl.GenTexture()
		gl.BindTexture(TEXTURE_2D, tex)
		gl.TexParameteri(TEXTURE_2D, TEXTURE_MIN_FILTER, NEAREST)
		gl.TexParameteri(TEXTURE_2D, TEXTURE_MAG_FILTER, NEAREST)
		gl.TexParameteri(TEXTURE_2D, TEXTURE_WRAP_S, CLAMP_TO_EDGE)
		gl.TexParameteri(TEXTURE_2D, TEXTURE_WRAP_T, CLAMP_TO_EDGE)
		gl.TexImage2D(TEXTURE_2D, 0, RGBA, n, n, RGBA, UNSIGNED_BYTE, data)
		return tex
	}
	texA, texB := mkTex(), mkTex()
	prog := buildProgram(t, gl, quadVS, cohStencilFS)
	gl.UseProgram(prog)
	gl.Uniform1i(gl.GetUniformLocation(prog, "u_tex"), 0)

	var first []byte
	for i := 0; i < 4; i++ {
		if i%2 == 0 {
			gl.BindTexture(TEXTURE_2D, texA)
		} else {
			gl.BindTexture(TEXTURE_2D, texB)
		}
		drawQuad(t, gl, prog)
		pixels := make([]byte, n*n*4)
		gl.ReadPixels(0, 0, n, n, RGBA, UNSIGNED_BYTE, pixels)
		if first == nil {
			first = pixels
		} else if !bytes.Equal(first, pixels) {
			t.Fatalf("iteration %d: pixels diverge from first draw", i)
		}
	}
	elided, shaded := gl.CoherenceStats()
	if shaded != 4 {
		t.Errorf("got %d shaded tiles, want 4 (first draw only)", shaded)
	}
	if elided != 12 {
		t.Errorf("got %d elided tiles across the alternating draws, want 12", elided)
	}
}

// TestCoherenceStaticFootprint proves the proven footprints drive exact
// elision for the stencil kernel (NEAREST + CLAMP_TO_EDGE, affine
// coordinates): an identical redraw replays every tile, a poke re-shades
// exactly the one tile whose one-texel-ring footprint holds it, and pixels
// stay byte-identical to the coherence-off mirror.
func TestCoherenceStaticFootprint(t *testing.T) {
	const n = 64 // 2×2 tiles of tileSize (32)
	coh := newCohTestCtx(t, n, true)
	defer coh.gl.Destroy()
	ref := newCohTestCtx(t, n, false)
	defer ref.gl.Destroy()

	p0, _, _, _ := coh.draw(t, n)
	r0, _, _, _ := ref.draw(t, n)
	if !bytes.Equal(p0, r0) {
		t.Fatal("coherent and reference pixels differ on the first draw")
	}
	if _, _, elided, shaded := coh.draw(t, n); elided != 4 || shaded != 0 {
		t.Fatalf("identical redraw: elided=%d shaded=%d, want 4/0", elided, shaded)
	}

	// A texel inside one tile's one-texel-ring footprint re-shades exactly
	// that tile — the static rectangle is tight, not padded.
	coh.poke(8, 8, []byte{9, 9, 9, 9})
	ref.poke(8, 8, []byte{9, 9, 9, 9})
	p1, _, elided, shaded := coh.draw(t, n)
	r1, _, _, _ := ref.draw(t, n)
	if !bytes.Equal(p1, r1) {
		t.Fatal("pixels diverged after the poke")
	}
	if elided != 3 || shaded != 1 {
		t.Fatalf("poke redraw: elided=%d shaded=%d, want 3/1", elided, shaded)
	}
}
