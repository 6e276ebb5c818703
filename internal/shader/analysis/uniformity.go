package analysis

import (
	"gles2gpgpu/internal/dataflow"
	"gles2gpgpu/internal/shader"
)

// Uniformity analysis.
//
// The lattice per register component is {uniform, varying}: a value is
// uniform when every fragment of a draw computes the same bits for it, and
// varying when fragments may disagree. Uniforms and the constant pool seed
// uniform (they are draw-constant by definition); inputs seed varying
// (varyings are interpolated per fragment and gl_FragCoord differs by
// construction). The join is "any varying path makes it varying".
//
// Data dependence alone is not enough: a write that only happens for some
// fragments makes the written value varying even when the operands are
// uniform, because fragments that skipped the write observe the old value.
// That is control dependence, and it is computed the standard way — via
// post-dominators on the reversed CFG with a virtual exit: the divergent
// influence region of a branch is every block reachable from it that does
// not post-dominate it. A branch whose condition is varying marks its
// region's writes (and any KIL inside it) divergent; the data and control
// passes iterate to a joint fixpoint because a divergent write can make a
// later branch condition varying.
//
// A TEX with uniform coordinates is uniform: texture contents are
// draw-constant, so every fragment fetches the same texels. KIL's discard
// edge is ignored for the write side (a discarded fragment's outputs are
// never observed) but a KIL under varying control is itself the
// divergent-discard fact the lint and the lane engine care about.
//
// Everything here is a may-vary analysis: "uniform" is a proof, "varying"
// is the safe default.

// Uniformity holds the solved per-instruction uniformity facts.
type Uniformity struct {
	// OperandVarying[i][k] reports that operand k (0=A, 1=B, 2=C) of
	// instruction i may read different values in different fragments of
	// one draw (any read lane varying). False is a proof of uniformity.
	OperandVarying [][3]bool
	// Divergent[i] reports that instruction i executes under varying
	// control flow: whether it runs at all differs between fragments.
	Divergent []bool
	// VaryingBranches lists reachable BRZ instructions whose condition is
	// varying — the branches the lane engine pays divergence for.
	VaryingBranches []int

	cfg *CFG
}

// SolveUniformity runs the analysis over c. sccp restricts the solution to
// reachable code (unreachable instructions report uniform and
// non-divergent; they never execute, so any claim about them is vacuous).
func SolveUniformity(c *CFG, sccp *SCCP) *Uniformity {
	p := c.Prog
	n := len(p.Insts)
	u := &Uniformity{
		OperandVarying: make([][3]bool, n),
		Divergent:      make([]bool, n),
		cfg:            c,
	}
	if n == 0 {
		return u
	}
	comps := 4 * (p.NumTemps + p.NumOutputs)
	compOf := func(file shader.RegFile, reg uint16, cc int) int {
		if file == shader.FileTemp {
			return int(reg)*4 + cc
		}
		return (p.NumTemps+int(reg))*4 + cc
	}

	nb := len(c.Blocks)
	postdom := postDominators(c)
	divBlock := make([]bool, nb)

	// srcVarying reports whether lane l of src may vary under state.
	srcVarying := func(state []bool, src shader.Src, l int) bool {
		cc := int(src.Swiz[l] & 3)
		switch src.File {
		case shader.FileConst, shader.FileUniform:
			return false
		case shader.FileTemp, shader.FileOutput:
			return state[compOf(src.File, src.Reg, cc)]
		default: // FileInput: varyings and gl_FragCoord differ per fragment
			return true
		}
	}

	// step advances state across instruction i and returns whether the
	// instruction's result (for writes) or condition (BRZ/KIL) varies.
	step := func(state []bool, i int, divergent bool) (condVarying bool) {
		in := &p.Insts[i]
		la, lb, lc := in.SrcLanes()
		lanes := [3]uint8{la, lb, lc}
		srcs := [3]shader.Src{in.A, in.B, in.C}
		anyVarying := false
		for k := 0; k < 3; k++ {
			for l := 0; l < 4; l++ {
				if lanes[k]&(1<<uint(l)) != 0 && srcVarying(state, srcs[k], l) {
					anyVarying = true
				}
			}
		}
		if in.Op == shader.OpBRZ || in.Op == shader.OpKIL {
			return anyVarying
		}
		mask := in.WriteMask()
		if mask == 0 || (in.Dst.File != shader.FileTemp && in.Dst.File != shader.FileOutput) {
			return false
		}
		// A write under varying control varies regardless of its operands:
		// fragments that skipped it keep the previous value. Reductions mix
		// every read lane into every written lane, so one varying read lane
		// taints all written components; componentwise ops taint lane-wise.
		reduction := in.Op == shader.OpDP2 || in.Op == shader.OpDP3 || in.Op == shader.OpDP4
		for cc := 0; cc < 4; cc++ {
			if mask&(1<<uint(cc)) == 0 {
				continue
			}
			v := divergent
			if reduction {
				v = v || anyVarying
			} else {
				for k := 0; k < 3; k++ {
					if lanes[k]&(1<<uint(cc)) != 0 && srcVarying(state, srcs[k], cc) {
						v = true
					}
				}
			}
			state[compOf(in.Dst.File, in.Dst.Reg, cc)] = v
		}
		return false
	}

	// Joint fixpoint: the data pass (block-level forward dataflow) and the
	// control pass (divergent-region marking from varying branches)
	// alternate until neither adds a varying fact. Both lattices are
	// finite and the updates monotone, so this terminates.
	blockIn := make([][]bool, nb)
	for b := range blockIn {
		blockIn[b] = make([]bool, comps)
	}
	state := make([]bool, comps)
	for {
		changed := false
		// Data pass to its own fixpoint under the current divBlock. Every
		// block is reseeded: a block whose divBlock flag was just set
		// produces new facts even when its input state did not change.
		work := make([]int, 0, nb)
		inWork := make([]bool, nb)
		for b := nb - 1; b >= 0; b-- {
			work = append(work, b)
			inWork[b] = true
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			inWork[b] = false
			copy(state, blockIn[b])
			for i := c.Blocks[b].Start; i < c.Blocks[b].End; i++ {
				step(state, i, divBlock[b])
			}
			for _, sb := range c.Blocks[b].Succs {
				sbChanged := false
				for j := range state {
					if state[j] && !blockIn[sb][j] {
						blockIn[sb][j] = true
						sbChanged = true
						changed = true
					}
				}
				if sbChanged && !inWork[sb] {
					work = append(work, sb)
					inWork[sb] = true
				}
			}
		}
		// Control pass: mark the influence region of every varying branch.
		for b := range c.Blocks {
			last := c.Blocks[b].End - 1
			if p.Insts[last].Op != shader.OpBRZ {
				continue
			}
			copy(state, blockIn[b])
			var cond bool
			for i := c.Blocks[b].Start; i <= last; i++ {
				cond = step(state, i, divBlock[b])
			}
			if !cond && !divBlock[b] {
				continue
			}
			// Blocks reachable from b that do not post-dominate b run for
			// some fragments and not others. A branch that is itself inside
			// a divergent region taints its region too (nested divergence).
			for _, x := range reachableFrom(c, b) {
				if x != b && !postdom[b].Get(x) && !divBlock[x] {
					divBlock[x] = true
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	// Record per-instruction facts under the solved states.
	for b := range c.Blocks {
		copy(state, blockIn[b])
		for i := c.Blocks[b].Start; i < c.Blocks[b].End; i++ {
			in := &p.Insts[i]
			if sccp != nil && !sccp.Reachable[i] {
				step(state, i, divBlock[b])
				continue
			}
			u.Divergent[i] = divBlock[b]
			la, lb, lc := in.SrcLanes()
			lanes := [3]uint8{la, lb, lc}
			srcs := [3]shader.Src{in.A, in.B, in.C}
			for k := 0; k < 3; k++ {
				for l := 0; l < 4; l++ {
					if lanes[k]&(1<<uint(l)) != 0 && srcVarying(state, srcs[k], l) {
						u.OperandVarying[i][k] = true
					}
				}
			}
			if in.Op == shader.OpBRZ && (u.OperandVarying[i][0] || divBlock[b]) {
				u.VaryingBranches = append(u.VaryingBranches, i)
			}
			step(state, i, divBlock[b])
		}
	}
	return u
}

// postDominators computes block-level post-dominator sets: postdom[b].Get(a)
// reports that block a post-dominates block b. It is the dominator solve on
// the reversed CFG, entered from a virtual exit node (index len(Blocks))
// that joins every exit block; KIL discard edges are not exits (see
// SolveUniformity). Blocks that cannot reach any exit get the full set —
// harmless for the divergence marking, which only consumes "does NOT
// post-dominate".
func postDominators(c *CFG) []dataflow.BitSet {
	nb := len(c.Blocks)
	exits := c.ExitBlocks()
	return dataflow.Dominators(nb+1, nb, func(x int) []int {
		if x == nb {
			return exits
		}
		return c.Blocks[x].Preds
	})
}

// reachableFrom returns the blocks reachable from b (excluding b unless it
// is on a cycle through itself).
func reachableFrom(c *CFG, b int) []int {
	seen := make([]bool, len(c.Blocks))
	var out []int
	stack := append([]int(nil), c.Blocks[b].Succs...)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[x] {
			continue
		}
		seen[x] = true
		out = append(out, x)
		stack = append(stack, c.Blocks[x].Succs...)
	}
	return out
}
