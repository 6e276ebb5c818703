package analysis

import (
	"strings"
	"testing"

	"gles2gpgpu/internal/glsl"
	"gles2gpgpu/internal/shader"
)

func solveFootprint(t *testing.T, p *shader.Program) *Footprint {
	t.Helper()
	c := BuildCFG(p)
	return SolveFootprint(c, SolveDefUse(c), SolveSCCP(c))
}

// constBounds is an inBounds callback returning the same interval for
// every input component.
func constBounds(lo, hi float32) func(reg, comp int) (float32, float32, bool) {
	return func(reg, comp int) (float32, float32, bool) { return lo, hi, true }
}

func TestFootprintDirectVarying(t *testing.T) {
	p := compileGLSL(t, `
precision mediump float;
uniform sampler2D text0;
varying vec2 v_tex;
void main() {
	gl_FragColor = texture2D(text0, v_tex);
}`)
	f := solveFootprint(t, p)
	if len(f.Slots) != 1 || !f.Slots[0].Provable {
		t.Fatalf("slot 0 unprovable: %+v", f.Slots)
	}
	if n := len(f.Slots[0].Coords); n != 1 {
		t.Fatalf("coords = %d, want 1", n)
	}
	pair := f.Slots[0].Coords[0]
	if !pair.U.HasInput || !pair.V.HasInput {
		t.Fatalf("coordinates should trace to input components: %+v", pair)
	}
	r, ok := f.SlotRect(0, nil, constBounds(0.25, 0.75), 64, 64)
	if !ok {
		t.Fatal("SlotRect failed on a proven slot")
	}
	// idx(0.25*64)=16, idx(0.75*64)=48, exact (no pad).
	want := TexRect{X0: 16, Y0: 16, X1: 48, Y1: 48}
	if r != want {
		t.Errorf("rect = %+v, want %+v", r, want)
	}
}

func TestFootprintAffineChain(t *testing.T) {
	p := compileGLSL(t, `
precision mediump float;
uniform sampler2D text0;
varying vec2 v_tex;
void main() {
	gl_FragColor = texture2D(text0, v_tex * 0.5 + vec2(0.25, 0.25));
}`)
	f := solveFootprint(t, p)
	if !f.Slots[0].Provable {
		t.Fatalf("affine coordinate unprovable: pc %d: %s",
			f.Slots[0].Pc, f.Slots[0].Reason)
	}
	r, ok := f.SlotRect(0, nil, constBounds(0, 1), 64, 64)
	if !ok {
		t.Fatal("SlotRect failed on a proven slot")
	}
	// u = [0,1]*0.5+0.25 = [0.25, 0.75] exactly in float32.
	want := TexRect{X0: 16, Y0: 16, X1: 48, Y1: 48}
	if r != want {
		t.Errorf("rect = %+v, want %+v", r, want)
	}
}

func TestFootprintUniformConstantCoord(t *testing.T) {
	p := compileGLSL(t, `
precision mediump float;
uniform sampler2D text0;
uniform vec2 u_off;
void main() {
	gl_FragColor = texture2D(text0, u_off);
}`)
	f := solveFootprint(t, p)
	if !f.Slots[0].Provable {
		t.Fatalf("uniform coordinate unprovable: %s", f.Slots[0].Reason)
	}
	pair := f.Slots[0].Coords[0]
	if pair.U.HasInput || pair.V.HasInput {
		t.Fatalf("uniform coordinate should not reference inputs: %+v", pair)
	}
	// Fill every uniform register with 0.5 so the test does not depend on
	// register assignment.
	uniforms := make([][4]float32, 8)
	for i := range uniforms {
		uniforms[i] = [4]float32{0.5, 0.5, 0.5, 0.5}
	}
	r, ok := f.SlotRect(0, uniforms, nil, 64, 64)
	if !ok {
		t.Fatal("SlotRect failed on a draw-constant slot")
	}
	want := TexRect{X0: 32, Y0: 32, X1: 32, Y1: 32} // idx(0.5*64) exactly
	if r != want {
		t.Errorf("rect = %+v, want %+v", r, want)
	}
}

func TestFootprintDependentFetchUnprovable(t *testing.T) {
	p := compileGLSL(t, `
precision mediump float;
uniform sampler2D text0;
uniform sampler2D text1;
varying vec2 v_tex;
void main() {
	vec4 t = texture2D(text1, v_tex);
	gl_FragColor = texture2D(text0, t.xy);
}`)
	f := solveFootprint(t, p)
	var dep, direct *SlotFootprint
	for si := range f.Slots {
		for i := range p.Insts {
			in := &p.Insts[i]
			if in.Op == shader.OpTEX && int(in.SamplerIdx) == si {
				if in.A.File == shader.FileInput || f.Slots[si].Provable {
					direct = &f.Slots[si]
				} else {
					dep = &f.Slots[si]
				}
				break
			}
		}
	}
	if direct == nil || !direct.Provable {
		t.Errorf("the directly-addressed slot should be provable: %+v", f.Slots)
	}
	if dep == nil || dep.Provable {
		t.Fatalf("the dependent fetch should be unprovable: %+v", f.Slots)
	}
	if !strings.Contains(dep.Reason, "texture fetch") {
		t.Errorf("reason = %q, want a dependent-fetch explanation", dep.Reason)
	}
	if _, ok := f.SlotRect(sIdx(f, dep), nil, constBounds(0, 1), 64, 64); ok {
		t.Errorf("SlotRect must fail for an unprovable slot")
	}
}

func sIdx(f *Footprint, s *SlotFootprint) int {
	for i := range f.Slots {
		if &f.Slots[i] == s {
			return i
		}
	}
	return -1
}

func TestFootprintNonAffineUnprovable(t *testing.T) {
	p := compileGLSL(t, `
precision mediump float;
uniform sampler2D text0;
varying vec2 v_tex;
void main() {
	gl_FragColor = texture2D(text0, v_tex * v_tex);
}`)
	f := solveFootprint(t, p)
	if f.Slots[0].Provable {
		t.Fatalf("varying*varying coordinate should be unprovable")
	}
	if f.Slots[0].Pc < 0 || f.Slots[0].Reason == "" {
		t.Errorf("unprovable slot should carry pc and reason: %+v", f.Slots[0])
	}
}

// TestFootprintKernelsProvable requires every sampler slot of every
// fragment kernel in kernelSuite to be provable: the coherence cache
// elides only draws whose every slot has a proven footprint, so a kernel
// that loses provability loses elision and fails here.
func TestFootprintKernelsProvable(t *testing.T) {
	for _, k := range kernelSuite(t) {
		if k.prog.Stage != glsl.StageFragment {
			continue
		}
		f := solveFootprint(t, k.prog)
		for si := range f.Slots {
			if !f.Slots[si].Provable {
				t.Errorf("%s: slot %d unprovable: pc %d: %s", k.name, si, f.Slots[si].Pc, f.Slots[si].Reason)
			}
		}
	}
}
