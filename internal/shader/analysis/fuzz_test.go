package analysis

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"gles2gpgpu/internal/glsl"
	"gles2gpgpu/internal/shader"
)

// FuzzPassPipeline drives arbitrary GLSL through the front end and the
// whole static-analysis stack — CFG, def-use, SCCP, resource counting,
// lint — then checks the lane admission rule and differentially executes
// any program that survives: one batch of shader.LaneWidth lanes with
// distinct inputs on the lane engine must match one reference-interpreter
// run per lane on every output bit, the Discarded flag, Cycles and
// TexFetches. Panics, parity breaks and admission verdicts that do not
// follow the liveness proofs are all fuzz failures; rejected sources are
// simply uninteresting.
func FuzzPassPipeline(f *testing.F) {
	f.Add("precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }\n")
	f.Add("precision mediump float;\nuniform float u;\nvoid main() {\n" +
		"\tfloat dead = u * 3.0;\n\tfloat x = u;\n\tif (x > 0.5) { discard; }\n" +
		"\tgl_FragColor = vec4(x + (0.25 + 0.25));\n}\n")
	f.Add("precision mediump float;\nuniform sampler2D t;\nvarying vec2 v;\n" +
		"void main() {\n\tvec2 c = texture2D(t, v).xy;\n\tgl_FragColor = texture2D(t, c);\n}\n")
	f.Add("precision mediump float;\nuniform vec2 a;\nuniform vec2 b;\n" +
		"void main() {\n\tfloat r = a.x * b.x + a.y * b.y;\n" +
		"\tfor (int i = 0; i < 3; i++) { r = r * 0.5 + 0.1; }\n\tgl_FragColor = vec4(r);\n}\n")
	f.Add("precision mediump float;\nvoid main() { float x; gl_FragColor = vec4(x); }\n")
	f.Add("precision mediump float;\nvarying vec2 v;\nvoid main() {\n" +
		"\tfloat a = fract(v.x * 7.3) + floor(v.y * 5.0);\n" +
		"\tgl_FragColor = vec4(a, sqrt(v.y), sin(v.x * 6.28), pow(v.y + 0.1, 2.2));\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		cs, err := glsl.Frontend(src, glsl.CompileOptions{Stage: glsl.StageFragment})
		if err != nil {
			return
		}
		p, err := shader.Compile(cs)
		if err != nil || len(p.Insts) == 0 {
			return
		}
		_ = CountResources(BuildCFG(p))
		_ = Lint(p, LimitProfiles())
		// The compiler emits only forward branches, so admission to the
		// GLES fast path comes down to the liveness proofs: every program
		// holding both is admitted, every other one is rejected for
		// liveness. The lane engine runs them all in a fresh LaneEnv.
		_, reason := shader.LaneFallbackAt(p)
		if p.WritesBeforeReads && p.OutputsAlwaysWritten {
			if reason != "" {
				t.Fatalf("program with both liveness proofs rejected: %s\n%s", reason, p.Disassemble())
			}
		} else if !strings.Contains(reason, "register read before written") &&
			!strings.Contains(reason, "output not written") {
			t.Fatalf("program without a liveness proof: reason %q, want a liveness reason\n%s", reason, p.Disassemble())
		}
		expectLaneParity(t, p)
	})
}

// fuzzSample is a deterministic texture fetch: a cheap hash of its
// arguments.
func fuzzSample(idx int, u, v float32) shader.Vec4 {
	h := math.Float32bits(u)*2654435761 + math.Float32bits(v)*40503 + uint32(idx)*97
	f := func(s uint32) float32 { return float32((h>>s)&0xFF) / 255 }
	return shader.Vec4{f(0), f(8), f(16), f(24)}
}

// expectLaneParity runs p on the reference interpreter once per lane and
// on the lane engine over one full batch with the same uniforms and
// per-lane inputs, and fails on any difference in per-lane outputs or
// Discarded flags or in the summed Cycles and TexFetches. Outputs of
// discarded lanes are compared too: the lane engine executes exactly the
// interpreter's prefix for such a lane. As in the shader
// package's own differential tests, all NaNs form one equivalence class,
// because NaN payload propagation is codegen-defined.
func expectLaneParity(t *testing.T, p *shader.Program) {
	t.Helper()
	const w = shader.LaneWidth
	rng := rand.New(rand.NewSource(7))
	randVec := func() shader.Vec4 {
		return shader.Vec4{rng.Float32(), rng.Float32(), rng.Float32(), rng.Float32()}
	}
	uni := make([]shader.Vec4, p.NumUniform)
	for i := range uni {
		uni[i] = randVec()
	}
	inputs := make([][]shader.Vec4, w)
	for l := range inputs {
		inputs[l] = make([]shader.Vec4, p.NumInputs)
		for i := range inputs[l] {
			inputs[l][i] = randVec()
		}
	}

	wantOut := make([][]shader.Vec4, w)
	wantDiscard := make([]bool, w)
	var wantCycles, wantTex int64
	for l := 0; l < w; l++ {
		env := shader.NewEnv(p)
		env.Sample = fuzzSample
		copy(env.Uniforms, uni)
		copy(env.Inputs, inputs[l])
		if err := shader.Run(p, env); err != nil {
			t.Fatalf("interpreter lane %d: %v\n%s", l, err, p.Disassemble())
		}
		wantOut[l] = env.Outputs
		wantDiscard[l] = env.Discarded
		wantCycles += env.Cycles
		wantTex += env.TexFetches
	}

	lc := shader.CompileLanes(p, w)
	if lc == nil {
		t.Fatalf("compiled program did not lane-compile:\n%s", p.Disassemble())
	}
	le := shader.NewLaneEnv(p, w)
	le.Sample = fuzzSample
	le.SetUniforms(uni)
	for l := range inputs {
		for reg, v := range inputs[l] {
			le.SetInput(l, reg, v)
		}
	}
	le.N = w
	lc.Run(le)
	if le.Cycles != wantCycles || le.TexFetches != wantTex {
		t.Fatalf("counters diverge: cycles %d, interpreter %d; tex %d, interpreter %d\n%s",
			le.Cycles, wantCycles, le.TexFetches, wantTex, p.Disassemble())
	}
	for l := 0; l < w; l++ {
		if le.Discarded[l] != wantDiscard[l] {
			t.Fatalf("lane %d Discarded %v, interpreter %v\n%s",
				l, le.Discarded[l], wantDiscard[l], p.Disassemble())
		}
		for reg, want := range wantOut[l] {
			got := le.Output(l, reg)
			for c := 0; c < 4; c++ {
				if want[c] != want[c] && got[c] != got[c] {
					continue // both NaN: equivalent
				}
				if math.Float32bits(got[c]) != math.Float32bits(want[c]) {
					t.Fatalf("lane %d output o%d.%d = %v (%#08x), interpreter %v (%#08x)\n%s",
						l, reg, c, got[c], math.Float32bits(got[c]),
						want[c], math.Float32bits(want[c]), p.Disassemble())
				}
			}
		}
	}
}
