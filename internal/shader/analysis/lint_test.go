package analysis

import (
	"strings"
	"testing"

	"gles2gpgpu/internal/glsl"
	"gles2gpgpu/internal/kernels"
	"gles2gpgpu/internal/shader"
)

// findByCode filters findings by rule code.
func findByCode(fs []Finding, code string) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Code == code {
			out = append(out, f)
		}
	}
	return out
}

func TestLintMadFusion(t *testing.T) {
	p := compileGLSL(t, `precision mediump float;
uniform float a;
uniform float b;
uniform float c;
void main() {
	float t = a * b;
	float r = t + c;
	gl_FragColor = vec4(r);
}
`)
	fs := findByCode(Lint(p, nil), "mad-fusion")
	if len(fs) == 0 {
		t.Fatalf("separate mul/add should trigger mad-fusion; findings: %v", Lint(p, nil))
	}
	if fs[0].Pos.Line != 7 {
		t.Errorf("finding at %v, want line 7 (the addition)", fs[0].Pos)
	}
	if fs[0].Sev != SevWarning {
		t.Errorf("severity = %v, want warning", fs[0].Sev)
	}
}

func TestLintMadFusionNotFiredWhenFused(t *testing.T) {
	// Written as one expression, the compiler fuses the MAD itself.
	p := compileGLSL(t, `precision mediump float;
uniform float a;
uniform float b;
uniform float c;
void main() {
	gl_FragColor = vec4(a * b + c);
}
`)
	if fs := findByCode(Lint(p, nil), "mad-fusion"); len(fs) != 0 {
		t.Errorf("fused expression should not warn: %v", fs)
	}
}

func TestLintBuiltinDot(t *testing.T) {
	p := compileGLSL(t, `precision mediump float;
uniform vec2 a;
uniform vec2 b;
void main() {
	float r = a.x * b.x + a.y * b.y;
	gl_FragColor = vec4(r);
}
`)
	fs := findByCode(Lint(p, nil), "builtin-dot")
	if len(fs) == 0 {
		t.Fatalf("hand-expanded dot should trigger builtin-dot; findings: %v", Lint(p, nil))
	}
	if fs[0].Pos.Line != 5 {
		t.Errorf("finding at %v, want line 5", fs[0].Pos)
	}
}

func TestLintBuiltinDotNotFiredOnBuiltin(t *testing.T) {
	p := compileGLSL(t, `precision mediump float;
uniform vec2 a;
uniform vec2 b;
void main() {
	gl_FragColor = vec4(dot(a, b));
}
`)
	if fs := findByCode(Lint(p, nil), "builtin-dot"); len(fs) != 0 {
		t.Errorf("dot() builtin should not warn: %v", fs)
	}
}

func TestLintBuiltinClamp(t *testing.T) {
	p := compileGLSL(t, `precision mediump float;
uniform float x;
void main() {
	float r = min(max(x, 0.25), 0.75);
	gl_FragColor = vec4(r);
}
`)
	fs := findByCode(Lint(p, nil), "builtin-clamp")
	if len(fs) == 0 {
		t.Fatalf("min(max(..)..) should trigger builtin-clamp; findings: %v", Lint(p, nil))
	}
	if fs[0].Pos.Line != 4 {
		t.Errorf("finding at %v, want line 4", fs[0].Pos)
	}
}

func TestLintUninitRead(t *testing.T) {
	p := compileGLSL(t, `precision mediump float;
uniform float u;
void main() {
	float x;
	if (u > 0.5) {
		x = 1.0;
	}
	gl_FragColor = vec4(x);
}
`)
	fs := findByCode(Lint(p, nil), "uninit-read")
	if len(fs) == 0 {
		t.Fatalf("conditional init should trigger uninit-read; findings: %v", Lint(p, nil))
	}
}

func TestLintNoUninitReadWhenInitialised(t *testing.T) {
	p := compileGLSL(t, `precision mediump float;
uniform float u;
void main() {
	float x = 0.0;
	if (u > 0.5) {
		x = 1.0;
	}
	gl_FragColor = vec4(x);
}
`)
	if fs := findByCode(Lint(p, nil), "uninit-read"); len(fs) != 0 {
		t.Errorf("initialised variable should not warn: %v", fs)
	}
}

func TestLintAlwaysDiscard(t *testing.T) {
	p := compileGLSL(t, `precision mediump float;
void main() {
	discard;
}
`)
	fs := findByCode(Lint(p, nil), "always-discard")
	if len(fs) == 0 {
		t.Fatalf("bare discard should warn; findings: %v", Lint(p, nil))
	}
	if !strings.Contains(fs[0].Msg, "every fragment") {
		t.Errorf("dominating discard should use the strong wording: %q", fs[0].Msg)
	}
}

func TestLintConditionalDiscardSilent(t *testing.T) {
	p := compileGLSL(t, `precision mediump float;
varying vec2 v_tex;
void main() {
	if (v_tex.x < 0.5) {
		discard;
	}
	gl_FragColor = vec4(1.0);
}
`)
	if fs := findByCode(Lint(p, nil), "always-discard"); len(fs) != 0 {
		t.Errorf("data-dependent discard should not warn: %v", fs)
	}
}

func TestLintLimitHeadroom(t *testing.T) {
	p := compileGLSL(t, `precision mediump float;
uniform sampler2D text0;
varying vec2 v_tex;
void main() {
	gl_FragColor = texture2D(text0, v_tex);
}
`)
	fs := Lint(p, LimitProfiles())
	head := findByCode(fs, "limit-headroom")
	if len(head) == 0 {
		t.Fatalf("profiles should produce headroom findings")
	}
	// Both profiles report at least instructions + texture accesses.
	if len(head) < 4 {
		t.Errorf("got %d headroom findings, want >= 4: %v", len(head), head)
	}
	for _, f := range head {
		if f.Sev != SevInfo {
			t.Errorf("headroom severity = %v, want info", f.Sev)
		}
	}
	if exceeded := findByCode(fs, "limit-exceeded"); len(exceeded) != 0 {
		t.Errorf("tiny kernel should not exceed limits: %v", exceeded)
	}
}

// TestLintKernelSuiteFindingClasses pins the acceptance criterion: run on
// the generated kernel corpus, the linter produces MAD, builtin and
// limit-headroom findings with GLSL source positions.
func TestLintKernelSuiteFindingClasses(t *testing.T) {
	classes := map[string]bool{}
	positioned := 0
	for _, k := range kernelSuite(t) {
		for _, f := range Lint(k.prog, LimitProfiles()) {
			classes[f.Code] = true
			if f.Pos.Line > 0 {
				positioned++
			}
		}
	}
	// The hand-written corpus shaders exercise the rules the generated
	// kernels (already optimised per the paper) avoid.
	p := compileGLSL(t, `precision mediump float;
uniform vec3 a;
uniform vec3 b;
uniform float c;
void main() {
	float t = a.x * b.x;
	float s = t + c;
	float r = min(max(s, 0.0), 1.0);
	gl_FragColor = vec4(r);
}
`)
	for _, f := range Lint(p, LimitProfiles()) {
		classes[f.Code] = true
		if f.Pos.Line > 0 {
			positioned++
		}
	}
	for _, want := range []string{"mad-fusion", "builtin-clamp", "limit-headroom"} {
		if !classes[want] {
			t.Errorf("finding class %q never produced; got %v", want, classes)
		}
	}
	if positioned == 0 {
		t.Errorf("no finding carried a source position")
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Code: "mad-fusion", Sev: SevWarning, Msg: "m"}
	f.Pos.Line, f.Pos.Col = 3, 7
	if got := f.String(); got != "3:7: warning: [mad-fusion] m" {
		t.Errorf("String() = %q", got)
	}
	f.Pos.Line = 0
	if got := f.String(); got != "warning: [mad-fusion] m" {
		t.Errorf("String() without pos = %q", got)
	}
}

func TestLintUniformBranch(t *testing.T) {
	p := compileGLSL(t, `precision mediump float;
uniform float u;
void main() {
	float r = 0.0;
	if (u > 0.5) {
		r = 1.0;
	}
	gl_FragColor = vec4(r);
}
`)
	fs := findByCode(Lint(p, nil), "uniform-branch")
	if len(fs) == 0 {
		t.Fatalf("uniform-condition branch should be reported; findings: %v", Lint(p, nil))
	}
	if fs[0].Sev != SevInfo {
		t.Errorf("severity = %v, want info", fs[0].Sev)
	}
}

func TestLintUniformBranchNotFiredOnVarying(t *testing.T) {
	p := compileGLSL(t, `precision mediump float;
varying vec2 v_tex;
void main() {
	float r = 0.0;
	if (v_tex.x > 0.5) {
		r = 1.0;
	}
	gl_FragColor = vec4(r);
}
`)
	if fs := findByCode(Lint(p, nil), "uniform-branch"); len(fs) != 0 {
		t.Errorf("varying-condition branch must not report uniform-branch: %v", fs)
	}
}

func TestLintDivergentDiscard(t *testing.T) {
	p := compileGLSL(t, `precision mediump float;
varying vec2 v_tex;
void main() {
	if (v_tex.x < 0.5) {
		discard;
	}
	gl_FragColor = vec4(1.0);
}
`)
	fs := findByCode(Lint(p, nil), "divergent-discard")
	if len(fs) == 0 {
		t.Fatalf("fragment-dependent discard should be reported; findings: %v", Lint(p, nil))
	}
}

func TestLintUniformDiscardNotDivergent(t *testing.T) {
	p := compileGLSL(t, `precision mediump float;
uniform float u;
void main() {
	if (u < 0.5) {
		discard;
	}
	gl_FragColor = vec4(1.0);
}
`)
	if fs := findByCode(Lint(p, nil), "divergent-discard"); len(fs) != 0 {
		t.Errorf("draw-uniform discard must not report divergent-discard: %v", fs)
	}
}

func TestLintProvablyDeadClamp(t *testing.T) {
	// The comparison result is always in [0,1], so clamping it to [0,1]
	// is an identity the range analysis proves.
	p := compileGLSL(t, `precision mediump float;
varying vec2 v_tex;
void main() {
	float s = float(v_tex.x > 0.5);
	float r = clamp(s, 0.0, 1.0);
	gl_FragColor = vec4(r);
}
`)
	fs := findByCode(Lint(p, nil), "provably-dead-clamp")
	if len(fs) == 0 {
		t.Fatalf("identity clamp should warn; findings: %v", Lint(p, nil))
	}
	if fs[0].Sev != SevWarning {
		t.Errorf("severity = %v, want warning", fs[0].Sev)
	}
}

func TestLintLiveClampSilent(t *testing.T) {
	p := compileGLSL(t, `precision mediump float;
varying vec2 v_tex;
void main() {
	gl_FragColor = vec4(clamp(v_tex.x, 0.25, 0.75));
}
`)
	if fs := findByCode(Lint(p, nil), "provably-dead-clamp"); len(fs) != 0 {
		t.Errorf("clamp over an unbounded input must not warn: %v", fs)
	}
}

func TestLintUnboundedFootprint(t *testing.T) {
	p := compileGLSL(t, `precision mediump float;
uniform sampler2D text0;
varying vec2 v_tex;
void main() {
	gl_FragColor = texture2D(text0, v_tex * v_tex);
}
`)
	fs := findByCode(Lint(p, nil), "unbounded-footprint")
	if len(fs) == 0 {
		t.Fatalf("non-affine coordinate should be reported; findings: %v", Lint(p, nil))
	}
	if !strings.Contains(fs[0].Msg, "slot 0") {
		t.Errorf("finding should name the slot: %q", fs[0].Msg)
	}
	if !strings.Contains(fs[0].Msg, "skip the coherence cache") {
		t.Errorf("finding should say the program's draws skip the coherence cache: %q", fs[0].Msg)
	}
}

func TestLintBoundedFootprintSilent(t *testing.T) {
	p := compileGLSL(t, `precision mediump float;
uniform sampler2D text0;
varying vec2 v_tex;
void main() {
	gl_FragColor = texture2D(text0, v_tex);
}
`)
	if fs := findByCode(Lint(p, nil), "unbounded-footprint"); len(fs) != 0 {
		t.Errorf("affine coordinate must not report unbounded-footprint: %v", fs)
	}
}

func TestLintMaskEligibility(t *testing.T) {
	// Branchy forward-only program: lane-eligible, with no fallback.
	p := compileGLSL(t, `precision mediump float;
varying vec2 v_tex;
void main() {
	float r = 0.0;
	if (v_tex.x > 0.5) {
		r = 1.0;
	}
	gl_FragColor = vec4(r);
}
`)
	fs := Lint(p, nil)
	el := findByCode(fs, "lane-eligible")
	if len(el) != 1 || el[0].Sev != SevInfo {
		t.Fatalf("forward-branchy program should be lane-eligible (info); findings: %v", fs)
	}
	if fb := findByCode(fs, "lane-fallback"); len(fb) != 0 {
		t.Errorf("eligible program must not also report lane-fallback: %v", fb)
	}

	// Straight-line program: lane-eligible too.
	p = compileGLSL(t, `precision mediump float;
void main() {
	gl_FragColor = vec4(1.0);
}
`)
	fs = Lint(p, nil)
	if len(findByCode(fs, "lane-eligible")) != 1 {
		t.Errorf("straight-line program should be lane-eligible: %v", fs)
	}

	// Backward branch in a program that holds both liveness proofs: the
	// fallback names the branch.
	loop := &shader.Program{
		Stage: glsl.StageFragment,
		Insts: []shader.Inst{
			{Op: shader.OpMOV, Dst: shader.DstReg(shader.FileTemp, 0, 4), A: shader.SrcReg(shader.FileInput, 0)},
			{Op: shader.OpBRZ, A: shader.SrcReg(shader.FileTemp, 0), Target: 0},
			{Op: shader.OpMOV, Dst: shader.DstReg(shader.FileOutput, 0, 4), A: shader.SrcReg(shader.FileTemp, 0)},
		},
		NumTemps: 1, NumInputs: 1, NumOutputs: 1,
		WritesBeforeReads: true, OutputsAlwaysWritten: true,
	}
	fs = Lint(loop, nil)
	fb := findByCode(fs, "lane-fallback")
	if len(fb) != 1 || !strings.Contains(fb[0].Msg, "backward branch at pc 1") {
		t.Errorf("backward branch should report lane-fallback at pc 1: %v", fs)
	}
	if el := findByCode(fs, "lane-eligible"); len(el) != 0 {
		t.Errorf("a fallback program must not also report lane-eligible: %v", el)
	}

	// A conditionally written temp read after the if: the draw shades it
	// per fragment, and the lint says so at the read.
	p = compileGLSL(t, `precision mediump float;
varying vec2 v;
void main() {
	float x;
	if (v.x > 0.5) { x = 1.0; }
	gl_FragColor = vec4(x);
}
`)
	fs = Lint(p, nil)
	fb = findByCode(fs, "lane-fallback")
	if len(fb) != 1 || !strings.Contains(fb[0].Msg, "register read before written") || fb[0].Pos.Line != 6 {
		t.Errorf("uninitialised read should report lane-fallback at line 6: %v", fs)
	}
	if el := findByCode(fs, "lane-eligible"); len(el) != 0 {
		t.Errorf("a fallback program must not also report lane-eligible: %v", el)
	}
}

// testKernel pairs a compiled program with a name for diagnostics.
type testKernel struct {
	name string
	prog *shader.Program
}

// kernelSuite compiles the paper's kernels plus hand-written control-flow
// and discard shaders — the corpus the lint tests run over.
func kernelSuite(t *testing.T) []testKernel {
	t.Helper()
	var ks []testKernel
	add := func(name, src string) {
		ks = append(ks, testKernel{name, compileGLSL(t, src)})
	}
	add("sum", kernels.Sum(kernels.DefaultOptions))
	add("sum-fp24", kernels.Sum(kernels.FP24Options))
	add("saxpy", kernels.Saxpy(kernels.DefaultOptions))
	add("transpose", kernels.Transpose(kernels.DefaultOptions))
	add("conv3x3", kernels.Conv3x3(16, 16, kernels.DefaultOptions))
	add("jacobi", kernels.Jacobi(16, 16, kernels.DefaultOptions))
	if src, err := kernels.SgemmPass(64, 8, kernels.DefaultOptions); err == nil {
		add("sgemm-64-8", src)
	} else {
		t.Fatalf("sgemm: %v", err)
	}
	if src, err := kernels.Reduce2x2(16, kernels.DefaultOptions); err == nil {
		add("reduce", src)
	} else {
		t.Fatalf("reduce: %v", err)
	}
	add("branchy-discard", `
precision mediump float;
uniform float u0;
uniform sampler2D text0;
varying vec2 v_tex;
void main() {
	if (v_tex.x < 0.25) {
		discard;
	}
	float t = u0 * v_tex.x;
	float unused = t * 3.0;
	vec2 a = v_tex * 2.0;
	float s = texture2D(text0, a).x;
	if (u0 > 0.5) {
		s = s + t;
	} else {
		s = s - t;
	}
	gl_FragColor = vec4(s, a.y, u0, 1.0);
}
`)
	// Vertex stage exercises the other compilation path.
	cs, err := glsl.Frontend(kernels.VertexShader, glsl.CompileOptions{Stage: glsl.StageVertex})
	if err != nil {
		t.Fatalf("vertex frontend: %v", err)
	}
	vp, err := shader.Compile(cs)
	if err != nil {
		t.Fatalf("vertex compile: %v", err)
	}
	ks = append(ks, testKernel{"vertex-quad", vp})
	return ks
}
