package shader_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gles2gpgpu/internal/glsl"
	"gles2gpgpu/internal/kernels"
	"gles2gpgpu/internal/shader"
)

// Lane admission: the GLES fast path shades every fragment program
// LaneFallbackAt admits, and only the interpreter runs the rest. GLSL ES
// 1.00 allows only statically bounded loops and the compiler unrolls them
// fully, so emitted programs branch forward only: the lane engine
// compiles everything the compiler emits, and admission comes down to the
// liveness proofs. These tests check that invariant over every shader
// source the repository ships or fuzzes; the fused composites the
// pipeline planner builds are checked in internal/pipeline
// (TestFusionDecisions).

// expectAdmitted fails the test when LaneFallbackAt rejects p.
func expectAdmitted(t *testing.T, name string, p *shader.Program) {
	t.Helper()
	if pc, reason := shader.LaneFallbackAt(p); pc != -1 {
		t.Errorf("%s: lane engine rejects pc %d: %s", name, pc, reason)
	}
}

// expectAdmission fails the test unless p lane-compiles and LaneFallbackAt
// admits it exactly when it carries both liveness proofs, rejecting it
// otherwise with a liveness reason.
func expectAdmission(t *testing.T, name string, p *shader.Program) {
	t.Helper()
	if shader.CompileLanes(p, shader.LaneWidth) == nil {
		t.Errorf("%s: compiled program does not lane-compile:\n%s", name, p.Disassemble())
	}
	if p.WritesBeforeReads && p.OutputsAlwaysWritten {
		expectAdmitted(t, name, p)
		return
	}
	_, reason := shader.LaneFallbackAt(p)
	if !strings.Contains(reason, "register read before written") && !strings.Contains(reason, "output not written") {
		t.Errorf("%s: program without a liveness proof: reason %q, want a liveness reason", name, reason)
	}
}

// compileStage runs the front and back end; ok is false when the source
// does not compile.
func compileStage(src string, stage glsl.ShaderStage) (*shader.Program, bool) {
	cs, err := glsl.Frontend(src, glsl.CompileOptions{Stage: stage})
	if err != nil {
		return nil, false
	}
	p, err := shader.Compile(cs)
	return p, err == nil
}

// corpusSources decodes every committed seed of a native fuzz corpus
// directory ("go test fuzz v1" files holding one string argument).
func corpusSources(t *testing.T, dir string) map[string]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus under %s (%v)", dir, err)
	}
	srcs := make(map[string]string, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, arg, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
		arg = strings.TrimSuffix(strings.TrimPrefix(arg, "string("), ")")
		src, err := strconv.Unquote(arg)
		if err != nil {
			t.Fatalf("%s: undecodable seed: %v", f, err)
		}
		srcs[f] = src
	}
	return srcs
}

func TestMaskedAdmitsFuzzCorpora(t *testing.T) {
	compiled := 0
	for _, dir := range []string{
		"../glsl/testdata/fuzz/FuzzFrontend",
		"analysis/testdata/fuzz/FuzzPassPipeline",
	} {
		for name, src := range corpusSources(t, dir) {
			for _, stage := range []glsl.ShaderStage{glsl.StageFragment, glsl.StageVertex} {
				if p, ok := compileStage(src, stage); ok {
					compiled++
					expectAdmission(t, name, p)
				}
			}
		}
	}
	if compiled == 0 {
		t.Fatal("no corpus program compiled")
	}
	t.Logf("%d corpus programs compiled and judged", compiled)
}

func TestMaskedAdmitsKernels(t *testing.T) {
	for tag, o := range map[string]kernels.Options{"fp32": kernels.DefaultOptions, "fp24": kernels.FP24Options} {
		srcs := map[string]string{
			"sum":       kernels.Sum(o),
			"sumdep":    kernels.SumDep(o),
			"saxpy":     kernels.Saxpy(o),
			"conv3x3":   kernels.Conv3x3(64, 64, o),
			"transpose": kernels.Transpose(o),
			"jacobi":    kernels.Jacobi(64, 64, o),
			"jacobi8":   kernels.Jacobi8(64, 64, o),
			"particles": kernels.Particles(o),
			"reaction":  kernels.ReactionDiffusion(64, 64, o),
			"sweep":     kernels.CoherenceSweep(0.25, o),
			"gaussx":    kernels.GaussBlurX(64, o),
			"gaussy":    kernels.GaussBlurY(64, o),
			"boxx":      kernels.BoxMeanX(64, 2, o),
			"boxy":      kernels.BoxMeanY(64, 2, o),
			"scalebias": kernels.ScaleBias(o),
			"gamma":     kernels.GammaMap(o),
			"diffshift": kernels.DiffShift(o),
			"binarize":  kernels.Binarize(o),
			"sobelx":    kernels.SobelX(64, 64, o),
			"sobely":    kernels.SobelY(64, 64, o),
			"gradmag":   kernels.GradMag(o),
			"nms":       kernels.NonMaxSuppress(64, 64, o),
			"spline":    kernels.SplineMap(8, o),
		}
		for _, block := range []int{1, 4, 16} {
			src, err := kernels.SgemmPass(64, block, o)
			if err != nil {
				t.Fatal(err)
			}
			srcs["sgemm/b"+strconv.Itoa(block)] = src
		}
		single, err := kernels.SgemmSinglePass(16, o)
		if err != nil {
			t.Fatal(err)
		}
		srcs["sgemm/single"] = single
		reduce, err := kernels.Reduce2x2(64, o)
		if err != nil {
			t.Fatal(err)
		}
		srcs["reduce2x2"] = reduce
		for name, src := range srcs {
			p, ok := compileStage(src, glsl.StageFragment)
			if !ok {
				t.Fatalf("%s/%s: kernel does not compile", tag, name)
			}
			expectAdmitted(t, tag+"/"+name, p)
		}
	}
	p, ok := compileStage(kernels.VertexShader, glsl.StageVertex)
	if !ok {
		t.Fatal("shared vertex shader does not compile")
	}
	// Vertex programs never shade on the lane engine. This one leaves the
	// .zw of its vec2 varying's register unwritten, so it has no
	// OutputsAlwaysWritten proof; it must still lane-compile.
	expectAdmission(t, "vertex", p)
}

// TestLaneFallbackLiveness pins the liveness clauses of the admission
// rule: each rejection points at the instruction that breaks the proof.
func TestLaneFallbackLiveness(t *testing.T) {
	for _, tc := range []struct {
		name, src, reason string
		op                shader.Op
	}{
		{"uninit-read", `precision mediump float;
varying vec2 v;
void main() {
	float x;
	if (v.x > 0.5) { x = 1.0; }
	gl_FragColor = vec4(x);
}`, "register read before written", shader.OpMOV},
		{"open-exit", `precision mediump float;
varying vec2 v;
void main() {
	if (v.x > 0.5) { gl_FragColor = vec4(v, 0.0, 1.0); }
}`, "output not written", shader.OpRET},
	} {
		p, ok := compileStage(tc.src, glsl.StageFragment)
		if !ok {
			t.Fatalf("%s: does not compile", tc.name)
		}
		pc, reason := shader.LaneFallbackAt(p)
		if pc < 0 || !strings.Contains(reason, tc.reason) {
			t.Fatalf("%s: LaneFallbackAt = %d %q, want a %q rejection", tc.name, pc, reason, tc.reason)
		}
		if op := p.Insts[pc].Op; op != tc.op {
			t.Errorf("%s: rejection points at %s (pc %d), want %s\n%s", tc.name, op, pc, tc.op, p.Disassemble())
		}
	}
}
