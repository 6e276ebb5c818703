package analysis

import (
	"testing"

	"gles2gpgpu/internal/shader"
)

func inp(r int) shader.Src  { return shader.SrcReg(shader.FileInput, r) }
func unif(r int) shader.Src { return shader.SrcReg(shader.FileUniform, r) }

// varyingDiamondIR branches on an input component and writes a constant in
// only one arm:
//
//	0: mov r0, i0        ; varying condition
//	1: brz r0, 3
//	2: mov r1, c0        ; runs for some fragments only
//	3: mov o0, r1        ; join
func varyingDiamondIR() *shader.Program {
	return &shader.Program{
		Insts: []shader.Inst{
			mov(dtemp(0), inp(0)),
			{Op: shader.OpBRZ, A: temp(0), Target: 3},
			mov(dtemp(1), cnst(0)),
			mov(shader.DstReg(shader.FileOutput, 0, 4), temp(1)),
		},
		Consts:     [][4]float32{{1, 1, 1, 1}},
		NumTemps:   2,
		NumInputs:  1,
		NumOutputs: 1,
	}
}

func TestUniformityVaryingBranch(t *testing.T) {
	c := BuildCFG(varyingDiamondIR())
	u := SolveUniformity(c, SolveSCCP(c))
	if len(u.VaryingBranches) != 1 || u.VaryingBranches[0] != 1 {
		t.Fatalf("VaryingBranches = %v, want [1]", u.VaryingBranches)
	}
	if !u.OperandVarying[1][0] {
		t.Errorf("branch condition reads an input; should be varying")
	}
	if !u.Divergent[2] {
		t.Errorf("write in the skippable arm should be divergent")
	}
	if u.Divergent[3] {
		t.Errorf("the join post-dominates the branch; not divergent")
	}
	// The joined r1 varies even though the written value is a constant:
	// fragments that skipped instruction 2 observe the old value.
	if !u.OperandVarying[3][0] {
		t.Errorf("value written under varying control should read as varying")
	}
}

func TestUniformityUniformBranch(t *testing.T) {
	p := varyingDiamondIR()
	p.Insts[0] = mov(dtemp(0), unif(0)) // condition now draw-constant
	c := BuildCFG(p)
	u := SolveUniformity(c, SolveSCCP(c))
	if len(u.VaryingBranches) != 0 {
		t.Fatalf("VaryingBranches = %v, want none (uniform condition)", u.VaryingBranches)
	}
	for i := range p.Insts {
		if u.Divergent[i] {
			t.Errorf("inst %d divergent under a uniform branch", i)
		}
	}
	// Every fragment takes the same arm, so the join read is uniform.
	if u.OperandVarying[3][0] {
		t.Errorf("join read should stay uniform when control is uniform")
	}
}

func TestUniformityGLSLDivergentDiscard(t *testing.T) {
	p := compileGLSL(t, `
precision mediump float;
varying vec2 v_tex;
void main() {
	if (v_tex.x < 0.5) { discard; }
	gl_FragColor = vec4(v_tex, 0.0, 1.0);
}`)
	c := BuildCFG(p)
	u := SolveUniformity(c, SolveSCCP(c))
	kil := -1
	for i := range p.Insts {
		if p.Insts[i].Op == shader.OpKIL {
			kil = i
		}
	}
	if kil < 0 {
		t.Fatal("no KIL emitted for discard")
	}
	if !u.OperandVarying[kil][0] && !u.Divergent[kil] {
		t.Errorf("discard depending on a varying should be varying or divergent")
	}
}
