// Package analysis is the static-analysis framework over the shader IR:
// CFG construction, dominators, def-use chains, sparse conditional
// constant propagation, per-path resource counting, device-profile limit
// checking and the glslint diagnostics.
//
// The package reproduces the paper's central static claims: whether a
// kernel compiles at all on a low-end mobile GPU is a static property
// (blocked sgemm above block size 16 exceeds GLSL implementation limits,
// §V-B Fig. 4b), and the profitable rewrites (MAD-shaped arithmetic,
// built-ins, mul24) are statically detectable (Fig. 3). Everything here is
// built on the generic solvers in internal/dataflow and on the read/write
// semantics exported by internal/shader (Inst.SrcLanes, Inst.WriteMask,
// Program.InstSuccs, Program.MustWrite), so the analyses provably agree
// with the execution engine about what instructions do.
package analysis

import (
	"gles2gpgpu/internal/dataflow"
	"gles2gpgpu/internal/shader"
)

// Block is one basic block: the half-open instruction range [Start, End)
// plus its control-flow edges, expressed as block indices.
type Block struct {
	Start, End int
	Succs      []int
	Preds      []int
}

// CFG is the basic-block control-flow graph of a program. Block 0 is the
// entry (instruction 0). Blocks appear in instruction order.
type CFG struct {
	Prog    *shader.Program
	Blocks  []Block
	BlockOf []int // instruction index -> block index
}

// BuildCFG partitions p into basic blocks. Leaders are instruction 0,
// every branch target, and every instruction following a BR, BRZ or RET.
func BuildCFG(p *shader.Program) *CFG {
	n := len(p.Insts)
	c := &CFG{Prog: p, BlockOf: make([]int, n)}
	if n == 0 {
		return c
	}
	leader := make([]bool, n)
	leader[0] = true
	for i := range p.Insts {
		switch p.Insts[i].Op {
		case shader.OpBR, shader.OpBRZ:
			if t := int(p.Insts[i].Target); t >= 0 && t < n {
				leader[t] = true
			}
			if i+1 < n {
				leader[i+1] = true
			}
		case shader.OpRET:
			if i+1 < n {
				leader[i+1] = true
			}
		}
	}
	for i := 0; i < n; i++ {
		if leader[i] {
			c.Blocks = append(c.Blocks, Block{Start: i})
		}
		c.BlockOf[i] = len(c.Blocks) - 1
	}
	for b := range c.Blocks {
		if b+1 < len(c.Blocks) {
			c.Blocks[b].End = c.Blocks[b+1].Start
		} else {
			c.Blocks[b].End = n
		}
		for _, s := range p.InstSuccs(c.Blocks[b].End - 1) {
			c.Blocks[b].Succs = append(c.Blocks[b].Succs, c.BlockOf[s])
		}
	}
	for b := range c.Blocks {
		for _, s := range c.Blocks[b].Succs {
			c.Blocks[s].Preds = append(c.Blocks[s].Preds, b)
		}
	}
	return c
}

// Dominators returns the block-level dominator sets (Dominators()[b].Get(a)
// reports that block a dominates block b), computed as a must-forward
// problem on the shared solver.
func (c *CFG) Dominators() []dataflow.BitSet {
	return dataflow.Dominators(len(c.Blocks), 0, func(b int) []int { return c.Blocks[b].Succs })
}

// ExitBlocks returns the blocks that leave the program without discarding:
// a final RET or a fall off the end of the instruction stream. (KIL's
// discard edge exits too, but a discarded fragment's outputs are never
// read, so analyses over observable exits use this set.)
func (c *CFG) ExitBlocks() []int {
	var exits []int
	n := len(c.Prog.Insts)
	for b := range c.Blocks {
		last := c.Blocks[b].End - 1
		switch c.Prog.Insts[last].Op {
		case shader.OpRET:
			exits = append(exits, b)
		case shader.OpBR:
			// never falls off
		default:
			if c.Blocks[b].End == n {
				exits = append(exits, b)
			}
		}
	}
	return exits
}

// Acyclic reports whether the CFG has no cycles (true for every program
// the GLSL back end emits — loops are fully unrolled — and required for
// the exact longest-path resource counts). topo, when acyclic, is a
// topological order of the blocks.
func (c *CFG) Acyclic() (topo []int, ok bool) {
	const (
		white = iota
		grey
		black
	)
	state := make([]int, len(c.Blocks))
	order := make([]int, 0, len(c.Blocks))
	ok = true
	var visit func(b int)
	visit = func(b int) {
		state[b] = grey
		for _, s := range c.Blocks[b].Succs {
			switch state[s] {
			case white:
				visit(s)
			case grey:
				ok = false
			}
		}
		state[b] = black
		order = append(order, b)
	}
	for b := range c.Blocks {
		if state[b] == white {
			visit(b)
		}
	}
	if !ok {
		return nil, false
	}
	// order is reverse-topological; flip it.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order, true
}
