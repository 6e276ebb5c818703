package shader

import (
	"math"
	"math/rand"
	"testing"

	"gles2gpgpu/internal/glsl"
	"gles2gpgpu/internal/kernels"
)

// Shared fixtures of the differential tests that check the lane engine
// (lanes_test.go) against the reference interpreter:
// random IR programs, edge-case register values, a deterministic sampler,
// bitwise bank comparison and the generated kernel suite.

// diffSampler is the deterministic texture fetch every differential run shares.
func diffSampler(idx int, u, v float32) Vec4 {
	return Vec4{u + float32(idx), v * 0.5, u * v, 1}
}

// diffBank compares a register bank bitwise, zero signs included. The one
// exception is NaN: which operand's NaN payload propagates through a
// float32 multiply depends on the Go compiler's operand ordering at each
// compilation site (x86 MULSS keeps the first NaN), so payload bits are
// codegen-defined even between two builds of the interpreter itself. All
// NaNs form one equivalence class; NaN-ness is closed under every IR op
// (comparisons, SGN, BRZ/KIL conditions ignore the payload), so no
// non-NaN value can diverge downstream of this allowance.
func diffBank(t *testing.T, p *Program, bank string, a, b []Vec4) {
	t.Helper()
	for r := range a {
		for c := 0; c < 4; c++ {
			if a[r][c] != a[r][c] && b[r][c] != b[r][c] {
				continue // both NaN: equivalent
			}
			if math.Float32bits(a[r][c]) != math.Float32bits(b[r][c]) {
				t.Fatalf("%s %d.%d divergence: interp %g (%#08x), lanes %g (%#08x)\n%s",
					bank, r, c, a[r][c], math.Float32bits(a[r][c]),
					b[r][c], math.Float32bits(b[r][c]), p.Disassemble())
			}
		}
	}
}

// fuzzValue produces register contents that exercise the numeric edge
// cases: zeros of both signs, infinities, exact integers, and ordinary
// fractions (0/0 divisions, comparisons at equality, quant24 truncation).
func fuzzValue(rng *rand.Rand) float32 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return float32(math.Copysign(0, -1))
	case 2:
		return float32(math.Inf(1 - 2*rng.Intn(2)))
	case 3:
		return float32(rng.Intn(9) - 4)
	default:
		return float32(rng.Intn(2001)-1000) / 1000
	}
}

var fuzzALUOps = []Op{
	OpMOV, OpADD, OpSUB, OpMUL, OpDIV, OpMAD, OpMUL24,
	OpDP2, OpDP3, OpDP4, OpMIN, OpMAX, OpCLAMP,
	OpABS, OpSGN, OpFLR, OpCEIL, OpFRC, OpRCP, OpRSQ, OpSQRT,
	OpEX2, OpLG2, OpPOW, OpEXP, OpLOG,
	OpSIN, OpCOS, OpTAN, OpASIN, OpACOS, OpATAN, OpATAN2,
	OpSLT, OpSLE, OpSGT, OpSGE, OpSEQ, OpSNE, OpSEL, OpTEX,
}

// randomSrc builds a source operand over p's register banks; const-pool
// reads occasionally index past the pool to cover the zero-fill path.
func randomSrc(rng *rand.Rand, p *Program) Src {
	var s Src
	switch rng.Intn(6) {
	case 0:
		s.File, s.Reg = FileUniform, uint16(rng.Intn(p.NumUniform))
	case 1:
		s.File, s.Reg = FileInput, uint16(rng.Intn(p.NumInputs))
	case 2:
		s.File, s.Reg = FileOutput, uint16(rng.Intn(p.NumOutputs))
	case 3:
		s.File, s.Reg = FileConst, uint16(rng.Intn(len(p.Consts)+2))
	default:
		s.File, s.Reg = FileTemp, uint16(rng.Intn(p.NumTemps))
	}
	if rng.Intn(2) == 0 {
		s.Swiz = IdentitySwiz
	} else {
		for i := range s.Swiz {
			s.Swiz[i] = uint8(rng.Intn(4))
		}
	}
	s.Neg = rng.Intn(4) == 0
	return s
}

func randomDst(rng *rand.Rand, p *Program) Dst {
	var d Dst
	switch rng.Intn(8) {
	case 0:
		d.File, d.Reg = FileOutput, uint16(rng.Intn(p.NumOutputs))
	case 1:
		// Write to a read-only file: must be dropped by every engine.
		d.File, d.Reg = FileUniform, uint16(rng.Intn(p.NumUniform))
	default:
		d.File, d.Reg = FileTemp, uint16(rng.Intn(p.NumTemps))
	}
	d.Mask = uint8(rng.Intn(16)) // 0 (no-op write) through full
	return d
}

// randomProgram builds a random but always-terminating IR program.
// Branches only go forward (targets in (pc, n]), so every program halts;
// withCtl=false produces straight-line programs, the domain of the
// whole-batch lane engine.
func randomProgram(rng *rand.Rand, withCtl bool) *Program {
	p := &Program{
		NumTemps:   1 + rng.Intn(4),
		NumInputs:  1 + rng.Intn(2),
		NumOutputs: 1 + rng.Intn(2),
		NumUniform: 1 + rng.Intn(2),
	}
	for i, nc := 0, rng.Intn(3); i < nc; i++ {
		p.Consts = append(p.Consts, [4]float32{
			fuzzValue(rng), fuzzValue(rng), fuzzValue(rng), fuzzValue(rng),
		})
	}
	n := 5 + rng.Intn(28)
	for i := 0; i < n; i++ {
		var in Inst
		r := rng.Intn(20)
		switch {
		case withCtl && r == 0:
			in.Op = OpBR
			in.Target = int32(i + 1 + rng.Intn(n-i))
		case withCtl && r == 1:
			in.Op = OpBRZ
			in.A = randomSrc(rng, p)
			in.Target = int32(i + 1 + rng.Intn(n-i))
		case withCtl && r == 2:
			in.Op = OpKIL
			in.A = randomSrc(rng, p)
		case withCtl && r == 3:
			in.Op = OpRET
		case r == 4:
			in.Op = OpNOP
		default:
			in.Op = fuzzALUOps[rng.Intn(len(fuzzALUOps))]
			in.Dst = randomDst(rng, p)
			in.A = randomSrc(rng, p)
			in.B = randomSrc(rng, p)
			in.C = randomSrc(rng, p)
			if in.Op == OpTEX {
				in.SamplerIdx = uint8(rng.Intn(2))
			}
		}
		p.Insts = append(p.Insts, in)
	}
	return p
}

// kernelSuite compiles every generated kernel source (both encoding
// options) through the full front end.
func kernelSuite(t *testing.T) map[string]*Program {
	t.Helper()
	progs := make(map[string]*Program)
	addSrc := func(name, src string, stage glsl.ShaderStage) {
		cs, err := glsl.Frontend(src, glsl.CompileOptions{Stage: stage})
		if err != nil {
			t.Fatalf("%s: frontend: %v", name, err)
		}
		p, err := Compile(cs)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		progs[name] = p
	}
	for _, o := range []struct {
		tag  string
		opts kernels.Options
	}{{"fp32", kernels.DefaultOptions}, {"fp24", kernels.FP24Options}} {
		addSrc("sum/"+o.tag, kernels.Sum(o.opts), glsl.StageFragment)
		addSrc("sumdep/"+o.tag, kernels.SumDep(o.opts), glsl.StageFragment)
		sgemm, err := kernels.SgemmPass(64, 16, o.opts)
		if err != nil {
			t.Fatal(err)
		}
		addSrc("sgemm16/"+o.tag, sgemm, glsl.StageFragment)
		addSrc("saxpy/"+o.tag, kernels.Saxpy(o.opts), glsl.StageFragment)
		addSrc("conv3x3/"+o.tag, kernels.Conv3x3(16, 16, o.opts), glsl.StageFragment)
		addSrc("transpose/"+o.tag, kernels.Transpose(o.opts), glsl.StageFragment)
		reduce, err := kernels.Reduce2x2(16, o.opts)
		if err != nil {
			t.Fatal(err)
		}
		addSrc("reduce2x2/"+o.tag, reduce, glsl.StageFragment)
		addSrc("jacobi/"+o.tag, kernels.Jacobi(16, 16, o.opts), glsl.StageFragment)
	}
	addSrc("quadvs", kernels.VertexShader, glsl.StageVertex)
	return progs
}
