package shader

import (
	"math"
	"strings"
	"testing"

	"gles2gpgpu/internal/glsl"
	"gles2gpgpu/internal/kernels"
)

// Second coverage pass for the back end: builtin numeric semantics,
// VM safety rails, and IR plumbing details.

func TestBuiltinNumericEquivalence(t *testing.T) {
	// Each case: expression over uniform x (and y), reference function.
	cases := []struct {
		expr string
		ref  func(x, y float64) float64
	}{
		{"sin(x)", func(x, y float64) float64 { return math.Sin(x) }},
		{"cos(x)", func(x, y float64) float64 { return math.Cos(x) }},
		{"tan(x)", func(x, y float64) float64 { return math.Tan(x) }},
		{"asin(x - 0.5)", func(x, y float64) float64 { return math.Asin(x - 0.5) }},
		{"acos(x - 0.5)", func(x, y float64) float64 { return math.Acos(x - 0.5) }},
		{"atan(x)", func(x, y float64) float64 { return math.Atan(x) }},
		{"atan(x, y)", func(x, y float64) float64 { return math.Atan2(x, y) }},
		{"exp(x)", func(x, y float64) float64 { return math.Exp(x) }},
		{"log(x + 0.5)", func(x, y float64) float64 { return math.Log(x + 0.5) }},
		{"exp2(x)", func(x, y float64) float64 { return math.Exp2(x) }},
		{"log2(x + 0.5)", func(x, y float64) float64 { return math.Log2(x + 0.5) }},
		{"pow(x + 0.5, y)", func(x, y float64) float64 { return math.Pow(x+0.5, y) }},
		{"inversesqrt(x + 0.5)", func(x, y float64) float64 { return 1 / math.Sqrt(x+0.5) }},
		{"radians(x * 100.0)", func(x, y float64) float64 { return x * 100 * math.Pi / 180 }},
		{"degrees(x)", func(x, y float64) float64 { return x * 180 / math.Pi }},
		{"sign(x - 0.5)", func(x, y float64) float64 {
			switch {
			case x > 0.5:
				return 1
			case x < 0.5:
				return -1
			}
			return 0
		}},
		{"ceil(x * 3.0)", func(x, y float64) float64 { return math.Ceil(x * 3) }},
		{"min(x, y)", math.Min},
		{"max(x, y)", math.Max},
		{"mix(x, y, 0.25)", func(x, y float64) float64 { return x + 0.25*(y-x) }},
	}
	inputs := [][2]float64{{0.1, 0.7}, {0.5, 0.25}, {0.9, 0.9}, {0.33, 0.05}}
	for _, c := range cases {
		p := compileFrag(t, hdr+`
uniform float x;
uniform float y;
void main(){ gl_FragColor = vec4(`+c.expr+`); }`)
		env := NewEnv(p)
		ux, _ := p.LookupUniform("x")
		out, _ := p.LookupOutput("gl_FragColor")
		var uy UniformInfo
		if u, ok := p.LookupUniform("y"); ok {
			uy = u
		}
		for _, in := range inputs {
			env.Reset()
			env.Uniforms[ux.Reg] = Vec4{float32(in[0])}
			if uy.Regs > 0 {
				env.Uniforms[uy.Reg] = Vec4{float32(in[1])}
			}
			if err := Run(p, env); err != nil {
				t.Fatalf("%s: %v", c.expr, err)
			}
			want := c.ref(in[0], in[1])
			got := float64(env.Outputs[out.Reg][0])
			if math.Abs(got-want) > 1e-4*math.Max(1, math.Abs(want)) {
				t.Errorf("%s at %v = %g, want %g", c.expr, in, got, want)
			}
		}
	}
}

func TestVectorRelationalBuiltins(t *testing.T) {
	p := compileFrag(t, hdr+`
uniform vec3 a;
uniform vec3 b;
void main(){
	bvec3 lt = lessThan(a, b);
	bvec3 ge = greaterThanEqual(a, b);
	float anyLt = any(lt) ? 1.0 : 0.0;
	float allGe = all(ge) ? 1.0 : 0.0;
	bvec3 n = not(lt);
	gl_FragColor = vec4(anyLt, allGe, n.x ? 1.0 : 0.0, float(lt.y));
}`)
	got := runFrag(t, p, map[string][]float32{"a": {1, 5, 3}, "b": {2, 4, 3}}, nil, nil)
	// lt = (T,F,F); ge = (F,T,T); any(lt)=1; all(ge)=0; not(lt).x=0; lt.y=0
	wantVec(t, got, [4]float32{1, 0, 0, 0}, 0)
	got = runFrag(t, p, map[string][]float32{"a": {5, 5, 5}, "b": {1, 1, 1}}, nil, nil)
	// lt = (F,F,F); ge = (T,T,T)
	wantVec(t, got, [4]float32{0, 1, 1, 0}, 0)
}

func TestGeometricBuiltinsReflectRefractFaceforward(t *testing.T) {
	p := compileFrag(t, hdr+`
void main(){
	vec3 i = normalize(vec3(1.0, -1.0, 0.0));
	vec3 n = vec3(0.0, 1.0, 0.0);
	vec3 r = reflect(i, n);
	vec3 ff = faceforward(n, i, n);
	vec3 rf = refract(i, n, 0.9);
	gl_FragColor = vec4(r.y, ff.y, rf.y, length(rf));
}`)
	got := runFrag(t, p, nil, nil, nil)
	s := float32(math.Sqrt2 / 2)
	// reflect: i - 2*dot(n,i)*n: dot = -s; r.y = -s + 2s = s.
	if !approx(got[0], s, 1e-5) {
		t.Errorf("reflect.y = %g, want %g", got[0], s)
	}
	// faceforward: dot(n, i) < 0 -> returns n: ff.y = 1.
	if got[1] != 1 {
		t.Errorf("faceforward.y = %g, want 1", got[1])
	}
	// refract result is unit length for these inputs and eta<1.
	if !approx(got[3], 1, 1e-4) {
		t.Errorf("|refract| = %g, want 1", got[3])
	}
	if got[2] >= 0 {
		t.Errorf("refract.y = %g, want negative (bending into the surface)", got[2])
	}
}

func TestMatrixCompMult(t *testing.T) {
	p := compileFrag(t, hdr+`
uniform mat2 a;
uniform mat2 b;
void main(){
	mat2 c = matrixCompMult(a, b);
	gl_FragColor = vec4(c[0], c[1]);
}`)
	got := runFrag(t, p,
		map[string][]float32{
			"a": {1, 2, 0, 0, 3, 4, 0, 0}, // columns padded to vec4 rows
			"b": {5, 6, 0, 0, 7, 8, 0, 0},
		}, nil, nil)
	wantVec(t, got, [4]float32{5, 12, 21, 32}, 1e-5)
}

func TestVMRunawayBranchProtection(t *testing.T) {
	// Hand-craft an infinite loop: BR 0.
	p := &Program{
		Stage: glsl.StageFragment,
		Insts: []Inst{{Op: OpBR, Target: 0}},
	}
	env := NewEnv(p)
	err := Run(p, env)
	if err == nil {
		t.Fatal("infinite branch loop not detected")
	}
	if !strings.Contains(err.Error(), "budget") {
		t.Errorf("error: %v", err)
	}
}

func TestVMWriteToReadOnlyFileIgnored(t *testing.T) {
	// A (buggy) instruction writing to the uniform file must not panic or
	// corrupt state.
	p := &Program{
		Stage:      glsl.StageFragment,
		NumUniform: 1,
		Insts: []Inst{
			{Op: OpMOV, Dst: Dst{File: FileUniform, Reg: 0, Mask: MaskAll}, A: SrcReg(FileConst, 0)},
			{Op: OpRET},
		},
		Consts: [][4]float32{{9, 9, 9, 9}},
	}
	env := NewEnv(p)
	env.Uniforms[0] = Vec4{1, 2, 3, 4}
	if err := Run(p, env); err != nil {
		t.Fatal(err)
	}
	if env.Uniforms[0] != (Vec4{1, 2, 3, 4}) {
		t.Error("write to uniform file not ignored")
	}
}

func TestSwizzleAndNegationSemantics(t *testing.T) {
	p := &Program{
		Stage:    glsl.StageFragment,
		NumTemps: 1, NumOutputs: 1,
		Outputs: []VarInfo{{Name: "gl_FragColor", Reg: 0, Components: 4}},
		Consts:  [][4]float32{{1, 2, 3, 4}},
		Insts: []Inst{
			{Op: OpMOV, Dst: DstReg(FileOutput, 0, 4),
				A: Src{File: FileConst, Reg: 0, Swiz: [4]uint8{3, 2, 1, 0}, Neg: true}},
			{Op: OpRET},
		},
	}
	env := NewEnv(p)
	if err := Run(p, env); err != nil {
		t.Fatal(err)
	}
	if env.Outputs[0] != (Vec4{-4, -3, -2, -1}) {
		t.Errorf("swizzled+negated read = %v", env.Outputs[0])
	}
}

func TestWriteMaskPreservesComponents(t *testing.T) {
	p := compileFrag(t, hdr+`
void main(){
	vec4 v = vec4(1.0, 2.0, 3.0, 4.0);
	v.yw = vec2(9.0, 8.0);
	gl_FragColor = v;
}`)
	got := runFrag(t, p, nil, nil, nil)
	wantVec(t, got, [4]float32{1, 9, 3, 8}, 0)
}

func TestEnvReuseAcrossInvocations(t *testing.T) {
	p := compileFrag(t, hdr+`
uniform float x;
void main(){
	float acc = 0.0;
	acc += x;
	gl_FragColor = vec4(acc);
}`)
	env := NewEnv(p)
	u, _ := p.LookupUniform("x")
	out, _ := p.LookupOutput("gl_FragColor")
	for i := 1; i <= 3; i++ {
		env.Reset()
		env.Uniforms[u.Reg] = Vec4{float32(i)}
		if err := Run(p, env); err != nil {
			t.Fatal(err)
		}
		if env.Outputs[out.Reg][0] != float32(i) {
			t.Fatalf("invocation %d leaked state: %v", i, env.Outputs[out.Reg])
		}
	}
	// Cycles accumulate monotonically across runs.
	if env.Cycles <= 0 {
		t.Error("no cycles accounted")
	}
}

func TestDisassembleCoversAllEmittedOps(t *testing.T) {
	p := compileFrag(t, "#extension GL_EXT_mul24 : enable\n"+hdr+`
uniform sampler2D s;
uniform float u;
varying vec2 vc;
void main(){
	vec4 t = texture2D(s, vc);
	float a = mul24(u, t.x);
	float b = clamp(sin(a) * sqrt(u), 0.0, 1.0);
	if (b > 0.5) { discard; }
	float c = dot(t.xy, vc);
	gl_FragColor = vec4(a, b, c, mod(u, 2.0));
}`)
	d := p.Disassemble()
	for _, mnemonic := range []string{"tex", "mul24", "clamp", "sin", "sqrt", "kil", "dp2", "mad", "flr"} {
		if !strings.Contains(d, mnemonic) {
			t.Errorf("disassembly missing %q:\n%s", mnemonic, d)
		}
	}
}

func TestInlineDepthLimit(t *testing.T) {
	// 70 nested calls exceed maxInlineDepth: the chain f69 -> f68 -> ...
	var sb strings.Builder
	sb.WriteString(hdr)
	sb.WriteString("float f0(float x){ return x + 1.0; }\n")
	for i := 1; i < 70; i++ {
		sb.WriteString("float f")
		sb.WriteString(itoa(i))
		sb.WriteString("(float x){ return f")
		sb.WriteString(itoa(i - 1))
		sb.WriteString("(x) + 1.0; }\n")
	}
	sb.WriteString("void main(){ gl_FragColor = vec4(f69(0.0)); }\n")
	cs, err := glsl.Frontend(sb.String(), glsl.CompileOptions{Stage: glsl.StageFragment})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(cs); err == nil {
		t.Error("70-deep inline chain accepted")
	} else if !strings.Contains(err.Error(), "depth") {
		t.Errorf("error: %v", err)
	}
}

func TestSinglePassSgemmExceedsDeviceLimits(t *testing.T) {
	// The §III motivation: a 1024-wide dot product in one kernel unrolls
	// to thousands of instructions and texture fetches, far past both
	// device profiles' limits; the block-16 multi-pass kernel fits.
	src, err := kernels.SgemmSinglePass(1024, kernels.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := glsl.Frontend(src, glsl.CompileOptions{Stage: glsl.StageFragment})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(cs)
	if err != nil {
		t.Fatal(err)
	}
	if p.TexInstructions != 2048 {
		t.Errorf("single-pass tex fetches = %d, want 2048", p.TexInstructions)
	}
	lim := Limits{MaxInstructions: 512, MaxTexInstructions: 40}
	if err := p.CheckLimits(lim); err == nil {
		t.Fatal("single-pass 1024 sgemm passed embedded limits")
	}
	// The blocked kernel fits the same limits.
	src, err = kernels.SgemmPass(1024, 16, kernels.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	cs, err = glsl.Frontend(src, glsl.CompileOptions{Stage: glsl.StageFragment})
	if err != nil {
		t.Fatal(err)
	}
	p, err = Compile(cs)
	if err != nil {
		t.Fatal(err)
	}
	if p.TexInstructions != 33 {
		t.Errorf("block-16 tex fetches = %d, want 33", p.TexInstructions)
	}
	if err := p.CheckLimits(lim); err != nil {
		t.Errorf("block-16 kernel rejected: %v", err)
	}
}

// TestCycleTableCosts pins the cost facts the paper's kernel-code
// optimisations rest on, on the one table every device shares:
// transcendentals cost more than an add, mul24 is cheaper than mul, and MAD
// costs the same as MUL, so MAD fusion still pays.
func TestCycleTableCosts(t *testing.T) {
	cost := func(op Op) int64 { return InstCost(&Inst{Op: op}) }
	cheap := cost(OpADD)
	for _, op := range []Op{OpSIN, OpCOS, OpEXP, OpLOG, OpPOW, OpDIV, OpSQRT, OpRSQ, OpTAN, OpATAN2} {
		if cost(op) <= cheap {
			t.Errorf("%s cost %d not above ADD cost %d", op, cost(op), cheap)
		}
	}
	if cost(OpMUL24) >= cost(OpMUL) {
		t.Error("mul24 not cheaper than mul")
	}
	if cost(OpMAD) != cost(OpMUL) {
		t.Error("mad should cost the same as mul (fused)")
	}
	if cost(OpTEX) != 4 {
		t.Errorf("tex issue cost %d, want 4", cost(OpTEX))
	}
}

func TestLimitErrorMessage(t *testing.T) {
	e := &LimitError{What: "instructions", Used: 600, Limit: 512}
	msg := e.Error()
	for _, want := range []string{"instructions", "600", "512"} {
		if !strings.Contains(msg, want) {
			t.Errorf("message %q missing %q", msg, want)
		}
	}
}

// TestExecutorFallback pins the reference interpreter every draw falls back
// to: Run computes the program's outputs and charges its static cycles.
func TestExecutorFallback(t *testing.T) {
	p := &Program{NumTemps: 1, NumOutputs: 1, Consts: [][4]float32{{2, 3, 4, 5}}, Insts: []Inst{
		{Op: OpADD, Dst: DstReg(FileOutput, 0, 4),
			A: SrcReg(FileConst, 0), B: SrcReg(FileConst, 0)},
	}}
	e := NewEnv(p)
	if err := Run(p, e); err != nil {
		t.Fatal(err)
	}
	if e.Outputs[0] != (Vec4{4, 6, 8, 10}) {
		t.Fatalf("got %v", e.Outputs[0])
	}
	if e.Cycles != p.StaticCycles() {
		t.Fatalf("cycles %d", e.Cycles)
	}
}
