package shader

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"gles2gpgpu/internal/glsl"
)

// compileFrag compiles a fragment shader source to IR.
func compileFrag(t *testing.T, src string) *Program {
	t.Helper()
	cs, err := glsl.Frontend(src, glsl.CompileOptions{Stage: glsl.StageFragment})
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	p, err := Compile(cs)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// runFrag executes a fragment program with the given named uniforms and
// inputs, returning the gl_FragColor output.
func runFrag(t *testing.T, p *Program, uniforms map[string][]float32, inputs map[string][]float32, sample SampleFunc) Vec4 {
	t.Helper()
	env := NewEnv(p)
	env.Sample = sample
	for name, vals := range uniforms {
		u, ok := p.LookupUniform(name)
		if !ok {
			t.Fatalf("uniform %q not found", name)
		}
		for r := 0; r*4 < len(vals); r++ {
			var v Vec4
			for i := 0; i < 4 && r*4+i < len(vals); i++ {
				v[i] = vals[r*4+i]
			}
			env.Uniforms[u.Reg+r] = v
		}
	}
	for name, vals := range inputs {
		in, ok := p.LookupInput(name)
		if !ok {
			t.Fatalf("input %q not found", name)
		}
		var v Vec4
		copy(v[:], vals)
		env.Inputs[in.Reg] = v
	}
	if err := Run(p, env); err != nil {
		t.Fatalf("run: %v", err)
	}
	out, ok := p.LookupOutput("gl_FragColor")
	if !ok {
		t.Fatal("no gl_FragColor output")
	}
	return env.Outputs[out.Reg]
}

const hdr = "precision mediump float;\n"

func approx(a, b, eps float32) bool {
	return float32(math.Abs(float64(a-b))) <= eps
}

func wantVec(t *testing.T, got Vec4, want [4]float32, eps float32) {
	t.Helper()
	for i := 0; i < 4; i++ {
		if !approx(got[i], want[i], eps) {
			t.Fatalf("output = %v, want %v (component %d)", got, want, i)
		}
	}
}

func TestCompileConstantOutput(t *testing.T) {
	p := compileFrag(t, hdr+"void main(){ gl_FragColor = vec4(0.25, 0.5, 0.75, 1.0); }")
	got := runFrag(t, p, nil, nil, nil)
	wantVec(t, got, [4]float32{0.25, 0.5, 0.75, 1}, 0)
}

func TestCompileArithmetic(t *testing.T) {
	p := compileFrag(t, hdr+`
uniform float a;
uniform float b;
void main(){
	float s = a + b;
	float d = a - b;
	float m = a * b;
	float q = a / b;
	gl_FragColor = vec4(s, d, m, q);
}`)
	got := runFrag(t, p, map[string][]float32{"a": {6}, "b": {2}}, nil, nil)
	wantVec(t, got, [4]float32{8, 4, 12, 3}, 1e-6)
}

func TestCompileSwizzleAndMask(t *testing.T) {
	p := compileFrag(t, hdr+`
uniform vec4 v;
void main(){
	vec4 o = vec4(0.0);
	o.xy = v.zw;
	o.z = v.x;
	o.w = dot(v.xy, vec2(1.0, 1.0));
	gl_FragColor = o.yxzw;
}`)
	got := runFrag(t, p, map[string][]float32{"v": {1, 2, 3, 4}}, nil, nil)
	wantVec(t, got, [4]float32{4, 3, 1, 3}, 1e-6)
}

func TestMADFusion(t *testing.T) {
	p := compileFrag(t, hdr+`
uniform float a;
uniform float b;
uniform float c;
void main(){ gl_FragColor = vec4(a*b + c); }`)
	found := false
	for _, in := range p.Insts {
		if in.Op == OpMAD {
			found = true
		}
		if in.Op == OpMUL {
			t.Error("unfused MUL present alongside expected MAD")
		}
	}
	if !found {
		t.Fatalf("no MAD generated:\n%s", p.Disassemble())
	}
	got := runFrag(t, p, map[string][]float32{"a": {3}, "b": {4}, "c": {5}}, nil, nil)
	wantVec(t, got, [4]float32{17, 17, 17, 17}, 1e-6)
}

func TestMADFusionAccumulate(t *testing.T) {
	// acc += A*B — the paper's sgemm inner loop — must fuse.
	p := compileFrag(t, hdr+`
uniform float x;
uniform float y;
void main(){
	float acc = 1.0;
	acc += x * y;
	gl_FragColor = vec4(acc);
}`)
	mads := 0
	for _, in := range p.Insts {
		if in.Op == OpMAD {
			mads++
		}
	}
	if mads != 1 {
		t.Fatalf("MAD count = %d, want 1:\n%s", mads, p.Disassemble())
	}
	got := runFrag(t, p, map[string][]float32{"x": {2}, "y": {3}}, nil, nil)
	wantVec(t, got, [4]float32{7, 7, 7, 7}, 1e-6)
}

func TestMADFusionSubtract(t *testing.T) {
	p := compileFrag(t, hdr+`
uniform float a;
uniform float b;
uniform float c;
void main(){ gl_FragColor = vec4(c - a*b, a*b - c, 0.0, 0.0); }`)
	got := runFrag(t, p, map[string][]float32{"a": {3}, "b": {4}, "c": {5}}, nil, nil)
	wantVec(t, got, [4]float32{-7, 7, 0, 0}, 1e-6)
}

func TestBuiltinSingleInstructions(t *testing.T) {
	// dot and clamp map to one instruction each (paper §II Kernel Code).
	p := compileFrag(t, hdr+`
uniform vec4 v;
void main(){
	float d = dot(v, v);
	gl_FragColor = vec4(clamp(d, 0.0, 10.0));
}`)
	var dps, clamps int
	for _, in := range p.Insts {
		switch in.Op {
		case OpDP4:
			dps++
		case OpCLAMP:
			clamps++
		}
	}
	if dps != 1 || clamps != 1 {
		t.Fatalf("dp4=%d clamp=%d, want 1/1:\n%s", dps, clamps, p.Disassemble())
	}
	got := runFrag(t, p, map[string][]float32{"v": {1, 2, 3, 4}}, nil, nil)
	wantVec(t, got, [4]float32{10, 10, 10, 10}, 1e-6)
}

func TestBuiltinMathFunctions(t *testing.T) {
	p := compileFrag(t, hdr+`
uniform float x;
void main(){
	gl_FragColor = vec4(floor(x), fract(x), sqrt(x), pow(x, 2.0));
}`)
	got := runFrag(t, p, map[string][]float32{"x": {2.25}}, nil, nil)
	wantVec(t, got, [4]float32{2, 0.25, 1.5, 5.0625}, 1e-5)
}

func TestBuiltinGeometric(t *testing.T) {
	p := compileFrag(t, hdr+`
void main(){
	vec3 a = vec3(1.0, 0.0, 0.0);
	vec3 b = vec3(0.0, 1.0, 0.0);
	vec3 c = cross(a, b);
	float l = length(vec3(3.0, 4.0, 0.0));
	vec3 n = normalize(vec3(0.0, 0.0, 8.0));
	gl_FragColor = vec4(c.z, l, n.z, distance(a, b));
}`)
	got := runFrag(t, p, nil, nil, nil)
	wantVec(t, got, [4]float32{1, 5, 1, float32(math.Sqrt2)}, 1e-5)
}

func TestBuiltinMixStepSmoothstep(t *testing.T) {
	p := compileFrag(t, hdr+`
void main(){
	float m = mix(0.0, 10.0, 0.25);
	float s = step(0.5, 0.7);
	float s2 = step(0.5, 0.3);
	float ss = smoothstep(0.0, 1.0, 0.5);
	gl_FragColor = vec4(m, s, s2, ss);
}`)
	got := runFrag(t, p, nil, nil, nil)
	wantVec(t, got, [4]float32{2.5, 1, 0, 0.5}, 1e-5)
}

func TestBuiltinMod(t *testing.T) {
	p := compileFrag(t, hdr+`
uniform float x;
uniform float y;
void main(){ gl_FragColor = vec4(mod(x, y)); }`)
	got := runFrag(t, p, map[string][]float32{"x": {7.5}, "y": {2}}, nil, nil)
	wantVec(t, got, [4]float32{1.5, 1.5, 1.5, 1.5}, 1e-5)
}

func TestUnrolledLoop(t *testing.T) {
	p := compileFrag(t, hdr+`
void main(){
	float acc = 0.0;
	for (int i = 0; i < 10; i++) { acc += 0.1; }
	gl_FragColor = vec4(acc);
}`)
	// No branch instructions expected — fully unrolled.
	for _, in := range p.Insts {
		if in.Op == OpBR || in.Op == OpBRZ {
			t.Fatalf("branch found in unrolled loop:\n%s", p.Disassemble())
		}
	}
	got := runFrag(t, p, nil, nil, nil)
	wantVec(t, got, [4]float32{1, 1, 1, 1}, 1e-5)
}

func TestLoopIndexAsConstant(t *testing.T) {
	// The unrolled loop index participates in address arithmetic as a
	// compile-time constant (needed for uniform array indexing).
	p := compileFrag(t, hdr+`
uniform float w[4];
void main(){
	float acc = 0.0;
	for (int i = 0; i < 4; i++) { acc += w[i] * float(i); }
	gl_FragColor = vec4(acc);
}`)
	got := runFrag(t, p, map[string][]float32{"w": {1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0}}, nil, nil)
	// 1*0 + 2*1 + 3*2 + 4*3 = 20
	wantVec(t, got, [4]float32{20, 20, 20, 20}, 1e-5)
}

func TestFloatLoopMatchesVMAccumulation(t *testing.T) {
	// Paper-style float loop: trip count from float32 accumulation.
	p := compileFrag(t, hdr+`
void main(){
	float n = 0.0;
	for (float i = 0.0; i < 0.015625; i += 0.0009765625) { n += 1.0; }
	gl_FragColor = vec4(n / 16.0);
}`)
	got := runFrag(t, p, nil, nil, nil)
	wantVec(t, got, [4]float32{1, 1, 1, 1}, 1e-6)
}

func TestDynamicBreakInUnrolledLoop(t *testing.T) {
	p := compileFrag(t, hdr+`
uniform float cutoff;
void main(){
	float acc = 0.0;
	for (int i = 0; i < 8; i++) {
		if (acc >= cutoff) { break; }
		acc += 1.0;
	}
	gl_FragColor = vec4(acc);
}`)
	got := runFrag(t, p, map[string][]float32{"cutoff": {3}}, nil, nil)
	wantVec(t, got, [4]float32{3, 3, 3, 3}, 1e-6)
}

func TestContinueInUnrolledLoop(t *testing.T) {
	p := compileFrag(t, hdr+`
uniform float skip;
void main(){
	float acc = 0.0;
	for (int i = 0; i < 4; i++) {
		if (float(i) == skip) { continue; }
		acc += 1.0;
	}
	gl_FragColor = vec4(acc);
}`)
	got := runFrag(t, p, map[string][]float32{"skip": {2}}, nil, nil)
	wantVec(t, got, [4]float32{3, 3, 3, 3}, 1e-6)
}

func TestIfElse(t *testing.T) {
	p := compileFrag(t, hdr+`
uniform float x;
void main(){
	if (x > 0.5) { gl_FragColor = vec4(1.0); }
	else { gl_FragColor = vec4(0.0); }
}`)
	wantVec(t, runFrag(t, p, map[string][]float32{"x": {0.7}}, nil, nil), [4]float32{1, 1, 1, 1}, 0)
	wantVec(t, runFrag(t, p, map[string][]float32{"x": {0.2}}, nil, nil), [4]float32{0, 0, 0, 0}, 0)
}

func TestTernaryAndLogical(t *testing.T) {
	p := compileFrag(t, hdr+`
uniform float a;
uniform float b;
void main(){
	float x = (a > 0.0 && b > 0.0) ? 1.0 : 0.0;
	float y = (a > 0.0 || b > 0.0) ? 1.0 : 0.0;
	float z = (a > 0.0 ^^ b > 0.0) ? 1.0 : 0.0;
	float w = !(a > 0.0) ? 1.0 : 0.0;
	gl_FragColor = vec4(x, y, z, w);
}`)
	wantVec(t, runFrag(t, p, map[string][]float32{"a": {1}, "b": {-1}}, nil, nil), [4]float32{0, 1, 1, 0}, 0)
	wantVec(t, runFrag(t, p, map[string][]float32{"a": {1}, "b": {1}}, nil, nil), [4]float32{1, 1, 0, 0}, 0)
	wantVec(t, runFrag(t, p, map[string][]float32{"a": {-1}, "b": {-1}}, nil, nil), [4]float32{0, 0, 0, 1}, 0)
}

func TestVectorEquality(t *testing.T) {
	p := compileFrag(t, hdr+`
uniform vec3 a;
uniform vec3 b;
void main(){
	float eq = (a == b) ? 1.0 : 0.0;
	float ne = (a != b) ? 1.0 : 0.0;
	gl_FragColor = vec4(eq, ne, 0.0, 0.0);
}`)
	wantVec(t, runFrag(t, p, map[string][]float32{"a": {1, 2, 3}, "b": {1, 2, 3}}, nil, nil), [4]float32{1, 0, 0, 0}, 0)
	wantVec(t, runFrag(t, p, map[string][]float32{"a": {1, 2, 3}, "b": {1, 9, 3}}, nil, nil), [4]float32{0, 1, 0, 0}, 0)
}

func TestUserFunctionInlining(t *testing.T) {
	p := compileFrag(t, hdr+`
float poly(float x) {
	if (x < 0.0) { return 0.0; }
	return x * x;
}
void unpack(in float v, out float doubled, inout float acc) {
	doubled = v * 2.0;
	acc += v;
}
void main(){
	float d = 0.0;
	float acc = 1.0;
	unpack(3.0, d, acc);
	gl_FragColor = vec4(poly(2.0), poly(-1.0), d, acc);
}`)
	got := runFrag(t, p, nil, nil, nil)
	wantVec(t, got, [4]float32{4, 0, 6, 4}, 1e-6)
}

func TestTextureSampling(t *testing.T) {
	p := compileFrag(t, hdr+`
uniform sampler2D tex;
varying vec2 vTex;
void main(){ gl_FragColor = texture2D(tex, vTex); }`)
	if p.TexInstructions != 1 {
		t.Fatalf("TexInstructions = %d, want 1", p.TexInstructions)
	}
	if len(p.Samplers) != 1 || p.Samplers[0] != "tex" {
		t.Fatalf("Samplers = %v", p.Samplers)
	}
	sample := func(idx int, u, v float32) Vec4 {
		return Vec4{u, v, float32(idx), 1}
	}
	got := runFrag(t, p, nil, map[string][]float32{"vTex": {0.25, 0.75}}, sample)
	wantVec(t, got, [4]float32{0.25, 0.75, 0, 1}, 0)
}

func TestSamplerPassedToFunction(t *testing.T) {
	p := compileFrag(t, hdr+`
uniform sampler2D tex;
vec4 fetch(sampler2D s, vec2 c) { return texture2D(s, c); }
void main(){ gl_FragColor = fetch(tex, vec2(0.5, 0.5)); }`)
	sample := func(idx int, u, v float32) Vec4 { return Vec4{u + v, 0, 0, 1} }
	got := runFrag(t, p, nil, nil, sample)
	wantVec(t, got, [4]float32{1, 0, 0, 1}, 0)
}

func TestMul24Quantisation(t *testing.T) {
	p := compileFrag(t, "#extension GL_EXT_mul24 : enable\n"+hdr+`
uniform float a;
uniform float b;
void main(){ gl_FragColor = vec4(mul24(a, b)); }`)
	// Check quantisation: a value needing more than 24 fractional bits is
	// truncated before the multiply.
	fine := float32(1.0) / (1 << 26) // below the 24-bit quantum: truncates to 0
	got := runFrag(t, p, map[string][]float32{"a": {fine}, "b": {1}}, nil, nil)
	wantVec(t, got, [4]float32{0, 0, 0, 0}, 0)
	got = runFrag(t, p, map[string][]float32{"a": {0.5}, "b": {0.25}}, nil, nil)
	wantVec(t, got, [4]float32{0.125, 0.125, 0.125, 0.125}, 0)
}

func TestDiscard(t *testing.T) {
	p := compileFrag(t, hdr+`
uniform float x;
void main(){
	if (x > 0.5) { discard; }
	gl_FragColor = vec4(1.0);
}`)
	env := NewEnv(p)
	u, _ := p.LookupUniform("x")
	env.Uniforms[u.Reg] = Vec4{0.9}
	if err := Run(p, env); err != nil {
		t.Fatal(err)
	}
	if !env.Discarded {
		t.Error("fragment not discarded")
	}
	env.Reset()
	env.Uniforms[u.Reg] = Vec4{0.1}
	if err := Run(p, env); err != nil {
		t.Fatal(err)
	}
	if env.Discarded {
		t.Error("fragment wrongly discarded")
	}
}

func TestMatrixOps(t *testing.T) {
	cs, err := glsl.Frontend(`
attribute vec4 a_pos;
uniform mat4 mvp;
varying vec4 v_out;
void main(){
	gl_Position = mvp * a_pos;
	mat2 m = mat2(1.0, 2.0, 3.0, 4.0); // columns (1,2) and (3,4)
	vec2 r = m * vec2(1.0, 1.0);       // (1+3, 2+4)
	vec2 s = vec2(1.0, 1.0) * m;       // (1+2, 3+4)
	v_out = vec4(r, s);
}`, glsl.CompileOptions{Stage: glsl.StageVertex})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(cs)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(p)
	u, _ := p.LookupUniform("mvp")
	// Identity scaled by 2.
	for i := 0; i < 4; i++ {
		var col Vec4
		col[i] = 2
		env.Uniforms[u.Reg+i] = col
	}
	in, _ := p.LookupInput("a_pos")
	env.Inputs[in.Reg] = Vec4{1, 2, 3, 4}
	if err := Run(p, env); err != nil {
		t.Fatal(err)
	}
	pos, _ := p.LookupOutput("gl_Position")
	if env.Outputs[pos.Reg] != (Vec4{2, 4, 6, 8}) {
		t.Errorf("gl_Position = %v, want (2,4,6,8)", env.Outputs[pos.Reg])
	}
	vout, _ := p.LookupOutput("v_out")
	wantVec(t, env.Outputs[vout.Reg], [4]float32{4, 6, 3, 7}, 1e-6)
}

func TestInstructionCountGrowsWithUnrolling(t *testing.T) {
	count := func(n string) int {
		p := compileFrag(t, hdr+`
uniform sampler2D t0;
varying vec2 vc;
void main(){
	float acc = 0.0;
	for (int i = 0; i < `+n+`; i++) { acc += texture2D(t0, vc).x; }
	gl_FragColor = vec4(acc);
}`)
		return p.InstructionCount()
	}
	c4, c16 := count("4"), count("16")
	if c16 <= c4 {
		t.Fatalf("instructions did not grow with unrolling: %d vs %d", c4, c16)
	}
	p := compileFrag(t, hdr+`
uniform sampler2D t0;
varying vec2 vc;
void main(){
	float acc = 0.0;
	for (int i = 0; i < 16; i++) { acc += texture2D(t0, vc).x; }
	gl_FragColor = vec4(acc);
}`)
	if p.TexInstructions != 16 {
		t.Errorf("TexInstructions = %d, want 16", p.TexInstructions)
	}
}

func TestCheckLimits(t *testing.T) {
	p := compileFrag(t, hdr+`
uniform sampler2D t0;
varying vec2 vc;
void main(){
	float acc = 0.0;
	for (int i = 0; i < 32; i++) { acc += texture2D(t0, vc).x; }
	gl_FragColor = vec4(acc);
}`)
	lim := DefaultLimits()
	lim.MaxTexInstructions = 16
	err := p.CheckLimits(lim)
	if err == nil {
		t.Fatal("texture-access limit not enforced")
	}
	var le *LimitError
	if !asLimitError(err, &le) {
		t.Fatalf("error type = %T", err)
	}
	if le.What != "texture accesses" || le.Used != 32 {
		t.Errorf("limit error = %+v", le)
	}
	lim = DefaultLimits()
	lim.MaxInstructions = 10
	if err := p.CheckLimits(lim); err == nil {
		t.Error("instruction limit not enforced")
	}
	if err := p.CheckLimits(DefaultLimits()); err != nil {
		t.Errorf("permissive limits rejected valid shader: %v", err)
	}
}

func asLimitError(err error, target **LimitError) bool {
	le, ok := err.(*LimitError)
	if ok {
		*target = le
	}
	return ok
}

func TestStaticCyclesMatchesVMForStraightLine(t *testing.T) {
	p := compileFrag(t, hdr+`
uniform vec4 a;
uniform vec4 b;
void main(){
	vec4 s = a * b + a;
	float d = dot(s, b);
	gl_FragColor = vec4(clamp(d, 0.0, 1.0));
}`)
	env := NewEnv(p)
	if err := Run(p, env); err != nil {
		t.Fatal(err)
	}
	if env.Cycles != p.StaticCycles() {
		t.Errorf("VM cycles %d != static %d", env.Cycles, p.StaticCycles())
	}
}

func TestCyclesFavorMul24AndMAD(t *testing.T) {
	run := func(body string, extension bool) int64 {
		src := hdr + "uniform float a;\nuniform float b;\nuniform float c;\nvoid main(){ gl_FragColor = vec4(" + body + "); }"
		if extension {
			src = "#extension GL_EXT_mul24 : enable\n" + src
		}
		p := compileFrag(t, src)
		return p.StaticCycles()
	}
	full := run("a*b", false)
	m24 := run("mul24(a, b)", true)
	if m24 >= full {
		t.Errorf("mul24 cycles %d not cheaper than mul %d", m24, full)
	}
	fused := run("a*b + c", false)
	if fused != full {
		// MAD should cost the same as the bare multiply in this model.
		t.Errorf("mad cycles %d != mul cycles %d", fused, full)
	}
}

func TestDisassembleSmoke(t *testing.T) {
	p := compileFrag(t, hdr+`
uniform sampler2D s;
varying vec2 vc;
void main(){ gl_FragColor = texture2D(s, vc); }`)
	d := p.Disassemble()
	for _, want := range []string{"tex", "uniform", "input", "fragment shader"} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q:\n%s", want, d)
		}
	}
}

// Property: for random inputs, compiled a*b+c equals Go arithmetic within
// float32 tolerance.
func TestMADProperty(t *testing.T) {
	p := compileFrag(t, hdr+`
uniform float a;
uniform float b;
uniform float c;
void main(){ gl_FragColor = vec4(a*b + c); }`)
	env := NewEnv(p)
	ua, _ := p.LookupUniform("a")
	ub, _ := p.LookupUniform("b")
	uc, _ := p.LookupUniform("c")
	out, _ := p.LookupOutput("gl_FragColor")
	f := func(a, b, c float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) || math.IsNaN(float64(c)) {
			return true
		}
		env.Reset()
		env.Uniforms[ua.Reg] = Vec4{a}
		env.Uniforms[ub.Reg] = Vec4{b}
		env.Uniforms[uc.Reg] = Vec4{c}
		if err := Run(p, env); err != nil {
			return false
		}
		want := a*b + c
		got := env.Outputs[out.Reg][0]
		if math.IsInf(float64(want), 0) || math.IsNaN(float64(want)) {
			return true
		}
		diff := math.Abs(float64(got - want))
		scale := math.Max(1, math.Abs(float64(want)))
		return diff <= 1e-5*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGlobalInitializers(t *testing.T) {
	p := compileFrag(t, hdr+`
float scale = 2.0;
uniform float u;
void main(){
	scale += 1.0;
	gl_FragColor = vec4(scale * u);
}`)
	got := runFrag(t, p, map[string][]float32{"u": {2}}, nil, nil)
	wantVec(t, got, [4]float32{6, 6, 6, 6}, 1e-6)
}

func TestFragCoordInput(t *testing.T) {
	p := compileFrag(t, hdr+`void main(){ gl_FragColor = gl_FragCoord / 8.0; }`)
	got := runFrag(t, p, nil, map[string][]float32{"gl_FragCoord": {4, 2, 0, 1}}, nil)
	wantVec(t, got, [4]float32{0.5, 0.25, 0, 0.125}, 1e-6)
}
