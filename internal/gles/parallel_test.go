package gles

import (
	"testing"

	"gles2gpgpu/internal/device"
)

func TestPointRasterNegativeOrigin(t *testing.T) {
	// A size-4 point centred on the window origin hangs two pixels off the
	// left and bottom edges; only the in-bounds 2×2 corner may be shaded.
	// Regression guard for the ceil() on negative screen coordinates in
	// point setup.
	env := newEnv(t, device.Generic(), 8, 8, false)
	gl := env.gl
	p := buildProgram(t, gl, `
attribute vec2 a_pos;
void main() {
	gl_Position = vec4(a_pos, 0.0, 1.0);
	gl_PointSize = 4.0;
}`, `
precision mediump float;
void main() { gl_FragColor = vec4(1.0, 0.0, 0.0, 1.0); }`)
	gl.UseProgram(p)
	loc := gl.GetAttribLocation(p, "a_pos")
	gl.EnableVertexAttribArray(loc)
	gl.VertexAttribPointerClient(loc, 2, []float32{-1, -1}, 0, 0)
	gl.DrawArrays(POINTS, 0, 1)
	if e := gl.GetError(); e != NO_ERROR {
		t.Fatalf("draw error: %s", ErrName(e))
	}
	buf := make([]byte, 8*8*4)
	gl.ReadPixels(0, 0, 8, 8, RGBA, UNSIGNED_BYTE, buf)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			red := buf[(y*8+x)*4]
			if x < 2 && y < 2 {
				if red != 255 {
					t.Errorf("pixel (%d,%d) = %d, want covered", x, y, red)
				}
			} else if red != 0 {
				t.Errorf("pixel (%d,%d) = %d, want untouched", x, y, red)
			}
		}
	}
	frags, _, _, ok := gl.DrawStatsFor(p, 8, 8)
	if !ok || frags != 4 {
		t.Errorf("fragments = %d (ok=%v), want 4", frags, ok)
	}
}

func TestShaderCompilationCache(t *testing.T) {
	env := newEnv(t, device.Generic(), 8, 8, false)
	gl := env.gl
	src := `precision mediump float;
void main() { gl_FragColor = vec4(1.0); }`

	compile := func() *Shader {
		s := gl.CreateShader(FRAGMENT_SHADER)
		gl.ShaderSource(s, src)
		gl.CompileShader(s)
		if gl.GetShaderiv(s, COMPILE_STATUS) != 1 {
			t.Fatalf("compile: %s", gl.GetShaderInfoLog(s))
		}
		return gl.shaders[s]
	}
	a, b := compile(), compile()
	if a.compiled != b.compiled {
		t.Error("identical source compiled twice: cache miss")
	}

	// A different stage with the same source must not share the entry.
	vs := gl.CreateShader(VERTEX_SHADER)
	gl.ShaderSource(vs, `void main() { gl_Position = vec4(0.0); }`)
	gl.CompileShader(vs)
	if gl.shaders[vs].compiled == a.compiled {
		t.Error("vertex shader shares fragment cache entry")
	}

	// Destroy evicts; recompilation produces a fresh program.
	gl.Destroy()
	c := compile()
	if c.compiled == a.compiled {
		t.Error("cache survived Destroy")
	}
}

func TestParallelGateRequiresProvenProgram(t *testing.T) {
	// A fragment shader that writes gl_FragColor only conditionally leaks
	// the previous fragment's colour in serial execution; the fast path's
	// gate must reject it so results stay identical.
	env := newEnv(t, device.Generic(), 8, 8, false)
	gl := env.gl
	p := buildProgram(t, gl, quadVS, `
precision mediump float;
varying vec2 v_tex;
void main() {
	if (v_tex.x > 0.5) {
		gl_FragColor = vec4(v_tex, 0.0, 1.0);
	}
}`)
	if gl.programs[p].fsProg.OutputsAlwaysWritten {
		t.Fatal("conditional gl_FragColor write wrongly proven")
	}
	if laneFormFor(gl.programs[p]) != nil {
		t.Error("fast-path gate accepted a conditionally-writing program")
	}
}
