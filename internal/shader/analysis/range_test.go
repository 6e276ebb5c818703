package analysis

import (
	"math"
	"testing"

	"gles2gpgpu/internal/shader"
)

// containsTightly reports that iv encloses [lo, hi] with at most slack of
// a few float32 ulps on either side.
func containsTightly(iv Interval, lo, hi float64) bool {
	const slack = 1e-4
	return !iv.NaN && iv.Lo <= lo && iv.Hi >= hi && lo-iv.Lo <= slack && iv.Hi-hi <= slack
}

func TestRangesConstantsAndComparisons(t *testing.T) {
	// 0: mov r0, c0        ; 2
	// 1: add r1, r0, c1    ; 2+3 = 5
	// 2: slt r2, i0, c0    ; {0, 1}
	// 3: brz r2, 5
	// 4: mov r3, c0
	// 5: mov o0, r1
	p := &shader.Program{
		Insts: []shader.Inst{
			mov(dtemp(0), cnst(0)),
			{Op: shader.OpADD, Dst: dtemp(1), A: temp(0), B: cnst(1)},
			{Op: shader.OpSLT, Dst: dtemp(2), A: inp(0), B: cnst(0)},
			{Op: shader.OpBRZ, A: temp(2), Target: 5},
			mov(dtemp(3), cnst(0)),
			mov(shader.DstReg(shader.FileOutput, 0, 4), temp(1)),
		},
		Consts:     [][4]float32{{2, 2, 2, 2}, {3, 3, 3, 3}},
		NumTemps:   4,
		NumInputs:  1,
		NumOutputs: 1,
	}
	c := BuildCFG(p)
	sccp := SolveSCCP(c)
	r := SolveRanges(c, sccp)
	if r.AllTop {
		t.Fatal("acyclic program solved AllTop")
	}
	if iv := r.Operand[5][0][0]; !containsTightly(iv, 5, 5) {
		t.Errorf("output read = %+v, want a tight enclosure of 5", iv)
	}
	// The branch condition is a comparison result: exactly {0, 1}, never
	// NaN — the lane engine's termination obligation holds.
	if iv := r.Operand[3][0][0]; !containsTightly(iv, 0, 1) {
		t.Errorf("comparison result = %+v, want [0, 1]", iv)
	}
	if !r.CondBounded(3) {
		t.Errorf("comparison-fed branch condition should be provably bounded")
	}
	if r.CondBounded(5) {
		t.Errorf("CondBounded on a non-branch should be false")
	}
}

func TestRangesVaryingInputIsTop(t *testing.T) {
	p := varyingDiamondIR()
	c := BuildCFG(p)
	r := SolveRanges(c, SolveSCCP(c))
	iv := r.Operand[1][0][0] // the BRZ reads the raw input copy
	if !iv.NaN || !math.IsInf(iv.Lo, -1) || !math.IsInf(iv.Hi, 1) {
		t.Errorf("raw input range = %+v, want top", iv)
	}
	if r.CondBounded(1) {
		t.Errorf("a raw-input condition must not be provably bounded")
	}
}

func TestRangesCyclicIsAllTop(t *testing.T) {
	p := &shader.Program{
		Insts: []shader.Inst{
			mov(dtemp(0), inp(0)),
			{Op: shader.OpBRZ, A: temp(0), Target: 0},
			mov(shader.DstReg(shader.FileOutput, 0, 4), temp(0)),
		},
		NumTemps:   1,
		NumInputs:  1,
		NumOutputs: 1,
	}
	c := BuildCFG(p)
	r := SolveRanges(c, SolveSCCP(c))
	if !r.AllTop {
		t.Fatal("cyclic CFG should solve AllTop")
	}
	if r.CondBounded(1) {
		t.Errorf("AllTop solve must not prove any condition bounded")
	}
}

func TestRangesGLSLClampAndTexel(t *testing.T) {
	p := compileGLSL(t, `
precision mediump float;
uniform sampler2D text0;
varying vec2 v_tex;
void main() {
	float t = texture2D(text0, v_tex).x;
	gl_FragColor = vec4(clamp(t, 0.0, 1.0), fract(t), 0.0, 1.0);
}`)
	c := BuildCFG(p)
	r := SolveRanges(c, SolveSCCP(c))
	if r.AllTop {
		t.Fatal("straight-line GLSL solved AllTop")
	}
	// Texel decodes land in [0, 1]; the CLAMP's first operand inherits it.
	for i := range p.Insts {
		if p.Insts[i].Op != shader.OpCLAMP {
			continue
		}
		if iv := r.Operand[i][0][0]; !containsTightly(iv, 0, 1) {
			t.Errorf("clamp input = %+v, want a tight [0, 1] (texel decode)", iv)
		}
		return
	}
	t.Fatal("no CLAMP emitted")
}
