package shader

// Write-before-read liveness analysis.
//
// The host-parallel fragment engine in internal/gles shades disjoint
// framebuffer regions on separate goroutines, each with its own Env. The
// serial engine reuses one Env across every fragment of a draw without
// resetting it, so a program that reads a temporary or output register
// before writing it would observe the previous invocation's value — and
// parallel shading (fresh or pooled Envs) would diverge from serial. The
// same property lets Env.Reset skip zeroing Temps entirely.
//
// The proof is a forward must-write dataflow over the instruction CFG: a
// register component is "definitely written" at an instruction if it is
// written on every path from the entry point. Reads are then checked
// against the definitely-written set. The analysis is path-insensitive but
// exact at joins, which handles the if/ternary/short-circuit branches the
// compiler emits; generated GPGPU kernels are fully unrolled and
// straight-line anyway.
//
// The fixpoint itself runs on the shared solver in internal/dataflow; the
// same MustWrite result is reused by internal/shader/analysis for its
// uninitialized-read diagnostics, so the lint findings and the execution
// engine's gating provably agree on what "written before read" means.
//
// The same fixpoint yields outputsAlwaysWritten: the meet of the
// definitely-written sets at every non-discarding program exit (RET and
// fall-off-the-end; KIL exits are excluded because discarded fragments'
// outputs are never read) must cover all output register components.

import "gles2gpgpu/internal/dataflow"

// MustWriteInfo is the solved must-write lattice of a program: for every
// instruction, the set of temp/output register components definitely
// written on every path from entry to that instruction (exclusive of the
// instruction's own writes). Unreachable instructions report top (all
// components written) — they never execute, so any fact holds vacuously.
type MustWriteInfo struct {
	// In[i] is the definitely-written set on entry to instruction i.
	In []dataflow.BitSet
	// numTemps fixes the bit layout: temps first, then outputs.
	numTemps int
}

// bit maps a register component to its lattice bit. Only FileTemp and
// FileOutput components are tracked.
func (m *MustWriteInfo) bit(file RegFile, reg uint16, comp int) int {
	if file == FileTemp {
		return int(reg)*4 + comp
	}
	return (m.numTemps+int(reg))*4 + comp
}

// SrcWrittenAt reports whether every post-swizzle lane in lanes of source
// operand s is definitely written when instruction i executes.
func (m *MustWriteInfo) SrcWrittenAt(i int, s Src, lanes uint8) bool {
	if s.File != FileTemp && s.File != FileOutput {
		return true
	}
	for l := 0; l < 4; l++ {
		if lanes&(1<<uint(l)) == 0 {
			continue
		}
		if !m.In[i].Get(m.bit(s.File, s.Reg, int(s.Swiz[l]&3))) {
			return false
		}
	}
	return true
}

// MustWrite solves the must-write dataflow for p. The result is
// deterministic and side-effect free; callers may cache it.
func (p *Program) MustWrite() *MustWriteInfo {
	n := len(p.Insts)
	bits := 4 * (p.NumTemps + p.NumOutputs)
	m := &MustWriteInfo{numTemps: p.NumTemps}
	if n == 0 {
		return m
	}
	// gen[i] = components instruction i writes.
	gen := make([]dataflow.BitSet, n)
	for i := range p.Insts {
		g := dataflow.NewBitSet(bits)
		in := &p.Insts[i]
		if mask := in.WriteMask(); mask != 0 &&
			(in.Dst.File == FileTemp || in.Dst.File == FileOutput) {
			for c := 0; c < 4; c++ {
				if mask&(1<<uint(c)) != 0 {
					g.Set(m.bit(in.Dst.File, in.Dst.Reg, c))
				}
			}
		}
		gen[i] = g
	}
	prob := &dataflow.Problem{
		N: n, Bits: bits, Entry: 0, Must: true,
		Succs: p.InstSuccs,
		Transfer: func(i int, in, out dataflow.BitSet) {
			out.CopyFrom(in)
			out.Or(gen[i])
		},
	}
	m.In = prob.Forward()
	return m
}

// firstOpenExit returns the first non-discarding exit at which some
// output register component is not definitely written, or -1 when every
// exit writes them all: RET exits check their in-set; instructions whose
// fall-through leaves the program check their out-set. Unreachable exits
// are top and never fail.
func firstOpenExit(p *Program, m *MustWriteInfo) int {
	n := len(p.Insts)
	for i := range p.Insts {
		var set dataflow.BitSet
		switch in := &p.Insts[i]; {
		case in.Op == OpRET:
			set = m.In[i]
		case in.Op == OpBR || i+1 != n:
			continue // never falls out of the program
		default:
			set = m.In[i].Clone()
			if mask := in.WriteMask(); mask != 0 &&
				(in.Dst.File == FileTemp || in.Dst.File == FileOutput) {
				for c := 0; c < 4; c++ {
					if mask&(1<<uint(c)) != 0 {
						set.Set(m.bit(in.Dst.File, in.Dst.Reg, c))
					}
				}
			}
		}
		for r := 0; r < p.NumOutputs; r++ {
			for c := 0; c < 4; c++ {
				if !set.Get(m.bit(FileOutput, uint16(r), c)) {
					return i
				}
			}
		}
	}
	return -1
}

// firstUninitRead returns the first instruction that reads a temp or
// output register component not definitely written before it, or -1.
// Only post-swizzle lanes that influence the result count as reads
// (Inst.SrcLanes).
func firstUninitRead(p *Program, m *MustWriteInfo) int {
	for i := range p.Insts {
		in := &p.Insts[i]
		la, lb, lc := in.SrcLanes()
		if !m.SrcWrittenAt(i, in.A, la) ||
			!m.SrcWrittenAt(i, in.B, lb) ||
			!m.SrcWrittenAt(i, in.C, lc) {
			return i
		}
	}
	return -1
}

// analyzeLiveness reports (writesBeforeReads, outputsAlwaysWritten) for p.
func analyzeLiveness(p *Program) (wbr, outAlways bool) {
	if len(p.Insts) == 0 {
		return true, p.NumOutputs == 0
	}
	m := p.MustWrite()
	return firstUninitRead(p, m) < 0, firstOpenExit(p, m) < 0
}
