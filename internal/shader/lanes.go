package shader

// Lane-batched (SoA) shader execution.
//
// The interpreter in vm.go re-decodes every instruction on every
// invocation: a switch dispatch per instruction, a swizzle/negate resolve
// per operand, a write-mask test per destination component. A fragment
// program runs once per fragment — for the paper-sized workloads that is
// millions of invocations of the same short straight line, so dispatch —
// not arithmetic — dominates host time. Real mobile GPGPU stacks amortise
// exactly this cost with wide SIMD execution: one instruction is issued
// once and applied to a whole workgroup of invocations.
//
// This file reproduces that structure on the host. A LaneCompiled runs a
// batch of up to W fragments ("lanes") through each instruction at once
// over a structure-of-arrays register file: each register component is a
// contiguous [W]float32 slab, so the per-op inner loop is a tight
// bounds-check-eliminated float32 loop the compiler can keep in registers.
// Operand decode and closure dispatch are paid once per instruction per
// *batch*, amortising them W×.
//
// Block structure. CompileLanes splits a program into segments, which are
// basic blocks. A boundary falls at every real branch target and after
// every real terminator: a BR/BRZ whose target is not pc+1, a KIL, or a
// RET that is not the last instruction. Fall-through branches (target =
// pc+1, emitted by the GLSL if-lowering) are cost-only and split nothing.
// Every generated GPGPU kernel except jacobi is one segment with no
// terminator, because loops are fully unrolled; Run charges that case
// statically and runs its ops with nothing else.
//
// Branchy programs run under a per-lane resume index: Run sweeps the
// segments in program order, and the lanes whose resume index names the
// current segment are active. The obligations that make this sound
// (the first checked by CompileLanes; LaneFallbackAt, the GLES fast
// path's admission rule, adds the liveness proofs that make pooled
// LaneEnvs safe to reuse):
//
//   - Forward branches only. Every BR/BRZ target exceeds its own pc, so
//     program order is a topological order of the CFG and one sweep visits
//     every segment a lane executes, in that lane's own order. A backward
//     edge could diverge lanes without bound (the unroller removes bounded
//     loops before codegen, so this costs no generated kernel).
//   - Inactive lanes keep their registers. Ops run over the full width, so
//     when only some of the batch's lanes are active, Run saves the other
//     lanes' values of the segment's write set and restores them after.
//   - Side effects gated per lane. TEX loops over the active-lane list, so
//     TexFetches and sampler calls are exact; KIL retires the discarding
//     lane and flags it in LaneEnv.Discarded so scatter paths skip its
//     pixel; RET retires the lane without a flag.
//   - Cycles per lane. The interpreter charges an instruction before it
//     executes it, so a discarding KIL charges itself and nothing after;
//     charging a segment's cost (terminator included) per active lane
//     reproduces the per-lane interpreter totals exactly.
//
// Float-precision audit (which ops may run float32-native and still match
// the interpreter bit for bit):
//
//   - ADD/SUB/MUL/DIV/RCP: the interpreter computes in float64 and rounds
//     to float32. For operations that are exactly rounded in both
//     precisions, rounding the double result to single equals computing
//     directly in single whenever the wide format carries at least 2p+2
//     significand bits (Figueroa, "When is double rounding innocuous?").
//     float64 has 53 >= 2*24+2, so these are bit-exact in float32.
//   - Comparisons (SLT..SNE, SGN): float32→float64 conversion is exact,
//     so the predicate value is identical; results 0.0/±1.0 are exact.
//   - MIN/MAX: bit-exact only if the float32 versions reproduce
//     math.Min/math.Max semantics — NaN normalisation (the float64 path
//     collapses any NaN payload to float32(math.NaN())) and signed-zero
//     selection. min32/max32 below do exactly that.
//   - MAD, DPn, MUL24, CLAMP, SEL, MOV, TEX: the interpreter already
//     executes these in float32; the lane bodies replicate the same
//     expression shapes (same operation order, so any platform FMA-fusing
//     decisions match too).
//   - Transcendentals (FLR/CEIL/FRC/RSQ/SQRT/EX2/LG2/POW/EXP/LOG/trig,
//     ABS): kept on the interpreter's float64 math-package path (f64Unary).
//
// Lanes never interact — DPn reductions run within one lane's four
// components — so a batch of N produces bit-for-bit the outputs and
// Discarded flags of N serial invocations, and Cycles/TexFetches advance
// by exactly the serial sums. The differential tests in lanes_test.go
// prove this against the interpreter on the kernel suite and on fuzzed
// straight-line and branchy programs.
//
// Garbage lanes: ALU loops run over the full width even when N < W; the
// stale values in lanes N..W-1 are never observed (only lanes < N are
// scattered) and float arithmetic on garbage cannot trap in Go.

import (
	"fmt"
	"math"
)

// MaxLaneWidth bounds the SoA batch width. 16 keeps one register
// component's slab (64 bytes) within a cache line.
const MaxLaneWidth = 16

// LaneWidth is the batch width the GLES fragment engine shades at. 8 was
// chosen by a width sweep over the kernel suite (BENCH_PR6.json): 16 was
// no faster.
const LaneWidth = 8

// LaneEnv is the execution environment of one batch of shader invocations,
// the SoA analogue of Env. Register banks are flat []float32 slabs laid
// out lane-major per component: register r, component c, lane l lives at
// index (r*4+c)*Width + l. Reuse one LaneEnv across batches (see
// LaneEnvPool); counters accumulate and callers measure deltas, exactly
// like pooled Envs.
type LaneEnv struct {
	Width int // allocated lane count (the W the banks are laid out for)
	N     int // live lanes in the current batch (0 < N <= Width)

	Uni []float32 // uniforms, broadcast across lanes (SetUniforms)
	In  []float32 // per-lane inputs (SetInput)
	Out []float32 // per-lane outputs (Output)
	Tmp []float32 // per-lane temporaries

	// scratch blocks materialise negated sources (0..2 for A/B/C) and
	// stage destinations that alias a source register (3), so op loops
	// never observe their own writes mid-instruction.
	scratch [4][]float32

	Sample   SampleFunc
	Samplers []TexFunc

	Cycles     int64
	TexFetches int64

	// Discarded flags the lanes that executed a KIL in the last batch;
	// scatter paths skip them.
	Discarded []bool

	// active lists the lanes the current segment runs; TEX reads it. It
	// aliases ident (the prefix 0..N-1) or actBuf.
	active []int32
	ident  []int32
	actBuf []int32
	// resume holds each lane's next segment; save holds the inactive
	// lanes' write-set values while a partial segment runs.
	resume []int32
	save   []float32
}

// NewLaneEnv returns a batch environment sized for p at the given width.
func NewLaneEnv(p *Program, width int) *LaneEnv {
	if width < 1 {
		width = 1
	} else if width > MaxLaneWidth {
		width = MaxLaneWidth
	}
	e := &LaneEnv{
		Width:     width,
		Uni:       make([]float32, maxi(p.NumUniform, 1)*4*width),
		In:        make([]float32, maxi(p.NumInputs, 1)*4*width),
		Out:       make([]float32, maxi(p.NumOutputs, 1)*4*width),
		Tmp:       make([]float32, maxi(p.NumTemps, 1)*4*width),
		Discarded: make([]bool, width),
		ident:     make([]int32, width),
		actBuf:    make([]int32, 0, width),
		resume:    make([]int32, width),
	}
	for i := range e.scratch {
		e.scratch[i] = make([]float32, 4*width)
	}
	for l := range e.ident {
		e.ident[l] = int32(l)
	}
	return e
}

// SetUniforms broadcasts a draw's uniform registers across all lanes.
// Uniforms are draw-invariant, so this runs once per draw, not per batch.
func (e *LaneEnv) SetUniforms(us []Vec4) {
	w := e.Width
	n := len(us)
	if max := len(e.Uni) / (4 * w); n > max {
		n = max
	}
	for r := 0; r < n; r++ {
		v := us[r]
		for c := 0; c < 4; c++ {
			lane := e.Uni[(r*4+c)*w:][:w]
			for l := range lane {
				lane[l] = v[c]
			}
		}
	}
}

// SetInput stores one lane's input register (a varying or gl_FragCoord).
func (e *LaneEnv) SetInput(lane, reg int, v Vec4) {
	w := e.Width
	base := reg * 4 * w
	e.In[base+lane] = v[0]
	e.In[base+w+lane] = v[1]
	e.In[base+2*w+lane] = v[2]
	e.In[base+3*w+lane] = v[3]
}

// Output reads one lane's output register after Run.
func (e *LaneEnv) Output(lane, reg int) Vec4 {
	w := e.Width
	base := reg * 4 * w
	return Vec4{
		e.Out[base+lane],
		e.Out[base+w+lane],
		e.Out[base+2*w+lane],
		e.Out[base+3*w+lane],
	}
}

// laneOp executes one instruction across the batch.
type laneOp func(e *LaneEnv)

// laneBlock resolves one register's 4*W-element slab at run time.
type laneBlock func(e *LaneEnv) []float32

// laneSrc is a compile-time-resolved source operand: a slab resolver plus
// per-result-component element offsets with the swizzle folded in
// (offs[c] = swiz[c]*W into the resolved slab).
type laneSrc struct {
	blk  laneBlock
	offs [4]int
}

// LaneCompiled is the lane-batched compiled form of one Program at one
// width. Immutable after compilation: any number of
// goroutines may Run it concurrently with distinct LaneEnvs.
type LaneCompiled struct {
	width int

	// segs are the program's basic blocks in program order.
	segs []laneSeg
	// saveLen is the LaneEnv.save length the largest write set needs.
	saveLen int

	// cst holds constant operands broadcast to SoA slabs at compile time
	// (swizzle and negation folded), appended per source instance.
	cst []float32
}

// Segment terminators.
const (
	termNone uint8 = iota // fall into the next segment
	termBR                // jump to target
	termBRZ               // jump to target if cond.x == 0
	termKIL               // discard the lane if cond.x != 0
	termRET               // retire the lane
)

// laneSeg is one basic block: its ops, its per-lane cost (terminator
// included), its write set and its terminator.
type laneSeg struct {
	ops  []laneOp
	cost int64
	// saves is the write set, one entry per written Temp/Output register
	// component (the union of the segment's write masks).
	saves []laneSlab
	term  uint8
	// target is the termBR/termBRZ segment; len(segs) retires the lane.
	target int32
	cond   laneSrc // termBRZ/termKIL operand A; .x decides
}

// laneSlab locates one register component's W-lane slab in Out (out) or
// Tmp at element offset off.
type laneSlab struct {
	out bool
	off int
}

// Run executes the batch of e.N live lanes. Outputs and Discarded flags
// for lanes 0..N-1 and the Cycles/TexFetches deltas are bit-identical to N
// serial interpreter invocations of the same program.
func (lc *LaneCompiled) Run(e *LaneEnv) {
	n := e.N
	if n <= 0 {
		return
	}
	if s := &lc.segs[0]; len(lc.segs) == 1 && s.term == termNone {
		e.Cycles += s.cost * int64(n)
		e.active = e.ident[:n]
		for _, f := range s.ops {
			f(e)
		}
		return
	}
	w := lc.width
	resume := e.resume[:n]
	for l := range resume {
		resume[l] = 0
		e.Discarded[l] = false
	}
	if len(e.save) < lc.saveLen {
		e.save = make([]float32, lc.saveLen)
	}
	retire := int32(len(lc.segs))
	for si := range lc.segs {
		s := &lc.segs[si]
		cur := int32(si)
		act := e.actBuf[:0]
		for l, r := range resume {
			if r == cur {
				act = append(act, int32(l))
			}
		}
		if len(act) == 0 {
			continue
		}
		e.Cycles += s.cost * int64(len(act))
		e.active = act
		partial := len(act) < n
		if partial {
			for k, sv := range s.saves {
				copy(e.save[k*w:k*w+w], e.slab(sv))
			}
		}
		for _, f := range s.ops {
			f(e)
		}
		if partial {
			for k, sv := range s.saves {
				dst, src := e.slab(sv), e.save[k*w:k*w+w]
				for l, r := range resume {
					if r != cur {
						dst[l] = src[l]
					}
				}
			}
		}
		next := cur + 1
		switch s.term {
		case termNone:
			for _, l := range act {
				resume[l] = next
			}
		case termBR:
			for _, l := range act {
				resume[l] = s.target
			}
		case termBRZ:
			cb, off := s.cond.blk(e), s.cond.offs[0]
			for _, l := range act {
				if cb[off+int(l)] == 0 {
					resume[l] = s.target
				} else {
					resume[l] = next
				}
			}
		case termKIL:
			cb, off := s.cond.blk(e), s.cond.offs[0]
			for _, l := range act {
				if cb[off+int(l)] != 0 {
					e.Discarded[l] = true
					resume[l] = retire
				} else {
					resume[l] = next
				}
			}
		case termRET:
			for _, l := range act {
				resume[l] = retire
			}
		}
	}
}

// slab returns the W-lane slab sv names.
func (e *LaneEnv) slab(sv laneSlab) []float32 {
	if sv.out {
		return e.Out[sv.off : sv.off+e.Width]
	}
	return e.Tmp[sv.off : sv.off+e.Width]
}

// LaneFallbackAt is admission to the GLES fast path: it reports why p
// may not shade on the lane engine, with the offending instruction's
// index so tooling (glslint's lane rule) can point at its source
// position; pc is -1 and reason "" when p is admitted. It rejects, in
// this order:
//
//   - a program without WritesBeforeReads, at its first read of an
//     unwritten register: pooled LaneEnvs carry stale register lanes
//     between batches and draws;
//   - a program without OutputsAlwaysWritten, at its first exit that
//     leaves an output unwritten: the scatter reads outputs after every
//     batch;
//   - a backward branch (CompileLanes' own precondition).
func LaneFallbackAt(p *Program) (pc int, reason string) {
	if !p.WritesBeforeReads {
		pc := max(firstUninitRead(p, p.MustWrite()), 0)
		return pc, fmt.Sprintf("register read before written at pc %d (pooled lane registers would leak between fragments)", pc)
	}
	if !p.OutputsAlwaysWritten {
		pc := max(firstOpenExit(p, p.MustWrite()), 0)
		return pc, fmt.Sprintf("output not written on every path to the exit at pc %d (the scatter would read a stale colour)", pc)
	}
	if pc := backwardBranch(p); pc >= 0 {
		return pc, fmt.Sprintf("backward branch at pc %d to %d (lanes could diverge without bound)", pc, p.Insts[pc].Target)
	}
	return -1, ""
}

// backwardBranch returns the first BR/BRZ whose target does not exceed
// its own pc, or -1: the one shape the segment sweep cannot run.
func backwardBranch(p *Program) int {
	for i := range p.Insts {
		if in := &p.Insts[i]; (in.Op == OpBR || in.Op == OpBRZ) && int(in.Target) <= i {
			return i
		}
	}
	return -1
}

// laneTerminates reports whether instruction i ends its segment: a real
// (not fall-through) branch, a KIL, or a RET before the last instruction.
func laneTerminates(insts []Inst, i int) bool {
	switch insts[i].Op {
	case OpBR, OpBRZ:
		return int(insts[i].Target) != i+1
	case OpKIL:
		return true
	case OpRET:
		return i != len(insts)-1
	}
	return false
}

// CompileLanes splits p into segments of lane closures priced by InstCost,
// for batches of the given width. It returns nil when p branches backward
// or width is outside [2, MaxLaneWidth] — the executor's own
// preconditions. Whether a draw may use the result is LaneFallbackAt's
// decision, which adds the liveness proofs.
func CompileLanes(p *Program, width int) *LaneCompiled {
	if width < 2 || width > MaxLaneWidth || backwardBranch(p) >= 0 {
		return nil
	}
	insts := p.Insts
	n := len(insts)
	// Segment leaders: entry, real branch targets, and the instruction
	// after each terminator. segOf[i] is the segment holding pc i.
	lead := make([]bool, n+1)
	lead[0] = true
	for i := range insts {
		if !laneTerminates(insts, i) {
			continue
		}
		lead[i+1] = true
		if in := &insts[i]; (in.Op == OpBR || in.Op == OpBRZ) && int(in.Target) < n {
			lead[in.Target] = true
		}
	}
	segOf := make([]int32, n)
	nseg := 0
	for i := range insts {
		if lead[i] {
			nseg++
		}
		segOf[i] = int32(nseg - 1)
	}
	lc := &LaneCompiled{width: width, segs: make([]laneSeg, maxi(nseg, 1))}
	seen := make(map[laneSlab]bool) // the current segment's write set
	for i := range insts {
		in := &insts[i]
		si := int(segOf[i])
		s := &lc.segs[si]
		if lead[i] {
			clear(seen)
		}
		s.cost += InstCost(in)
		if laneTerminates(insts, i) {
			switch in.Op {
			case OpBR, OpBRZ:
				s.term, s.target = termBR, int32(nseg)
				if int(in.Target) < n {
					s.target = segOf[in.Target]
				}
				if in.Op == OpBRZ {
					s.term = termBRZ
					s.cond = lc.compileLaneSrc(p.Consts, in.A, 0)
				}
			case OpKIL:
				s.term = termKIL
				s.cond = lc.compileLaneSrc(p.Consts, in.A, 0)
			case OpRET:
				s.term = termRET
			}
			continue
		}
		switch in.Op {
		case OpNOP, OpRET, OpBR, OpBRZ:
			continue // cost-only: fall-through branches and the final RET
		}
		fn := lc.compileLaneInst(p.Consts, in)
		if fn == nil {
			return nil
		}
		s.ops = append(s.ops, fn)
		// Segment 0 always runs every lane, so it never saves.
		if d := in.Dst; si > 0 && (d.File == FileTemp || d.File == FileOutput) {
			for c := 0; c < 4; c++ {
				sv := laneSlab{out: d.File == FileOutput, off: (int(d.Reg)*4 + c) * width}
				if d.Mask&(1<<uint(c)) != 0 && !seen[sv] {
					seen[sv] = true
					s.saves = append(s.saves, sv)
				}
			}
		}
	}
	for i := range lc.segs {
		lc.saveLen = maxi(lc.saveLen, len(lc.segs[i].saves)*width)
	}
	return lc
}

// laneConst appends a constant operand broadcast to a 4*W slab with
// swizzle and negation folded at compile time; the returned laneSrc reads
// it with identity offsets.
func (lc *LaneCompiled) laneConst(consts [][4]float32, s Src) laneSrc {
	w := lc.width
	v := resolveConst(consts, s)
	base := len(lc.cst)
	for c := 0; c < 4; c++ {
		for l := 0; l < w; l++ {
			lc.cst = append(lc.cst, v[c])
		}
	}
	blkRef := &lc.cst
	return laneSrc{
		blk:  func(e *LaneEnv) []float32 { return (*blkRef)[base : base+4*w] },
		offs: [4]int{0, w, 2 * w, 3 * w},
	}
}

// laneBank returns the slab resolver for a register bank operand.
func laneBank(f RegFile, reg, w int) laneBlock {
	base := reg * 4 * w
	end := base + 4*w
	switch f {
	case FileTemp:
		return func(e *LaneEnv) []float32 { return e.Tmp[base:end] }
	case FileUniform:
		return func(e *LaneEnv) []float32 { return e.Uni[base:end] }
	case FileInput:
		return func(e *LaneEnv) []float32 { return e.In[base:end] }
	case FileOutput:
		return func(e *LaneEnv) []float32 { return e.Out[base:end] }
	default:
		return nil
	}
}

// compileLaneSrc resolves one source operand. Negated register sources
// materialise into the env scratch slab for their operand slot (negating
// all four components commutes with the compile-time swizzle offsets), so
// op inner loops read plain float32 slabs in every case.
func (lc *LaneCompiled) compileLaneSrc(consts [][4]float32, s Src, slot int) laneSrc {
	w := lc.width
	if s.File == FileConst {
		return lc.laneConst(consts, s)
	}
	offs := [4]int{
		int(s.Swiz[0]&3) * w, int(s.Swiz[1]&3) * w,
		int(s.Swiz[2]&3) * w, int(s.Swiz[3]&3) * w,
	}
	base := laneBank(s.File, int(s.Reg), w)
	if base == nil {
		// Reads from an unknown bank yield zero, as Env.read does.
		zero := make([]float32, 4*w)
		return laneSrc{blk: func(e *LaneEnv) []float32 { return zero }, offs: offs}
	}
	if !s.Neg {
		return laneSrc{blk: base, offs: offs}
	}
	return laneSrc{
		blk: func(e *LaneEnv) []float32 {
			src := base(e)
			dst := e.scratch[slot]
			_ = dst[len(src)-1]
			for i := range src {
				dst[i] = -src[i]
			}
			return dst
		},
		offs: offs,
	}
}

// laneComp pairs a written destination component offset with the swizzled
// source offsets feeding it.
type laneComp struct {
	d, a, b, c int
}

// activeComps lists the destination components the write mask keeps, with
// each component's source offsets resolved.
func activeComps(w int, mask uint8, a, b, c *laneSrc) []laneComp {
	var out []laneComp
	for ci := 0; ci < 4; ci++ {
		if mask&(1<<uint(ci)) == 0 {
			continue
		}
		t := laneComp{d: ci * w}
		if a != nil {
			t.a = a.offs[ci]
		}
		if b != nil {
			t.b = b.offs[ci]
		}
		if c != nil {
			t.c = c.offs[ci]
		}
		out = append(out, t)
	}
	return out
}

// aliases reports whether a read operand overlaps the destination
// register, requiring the result to be staged so all reads observe
// pre-instruction values (the interpreter reads every source into locals
// before writing).
func aliases(d Dst, s Src, readMask uint8) bool {
	return readMask != 0 && s.File == d.File && s.Reg == d.Reg
}

// compileLaneDst resolves the destination slab. When the destination
// aliases a source, the op writes into scratch slab 3 and a follow-up
// copy closure moves the masked components into the real register; the
// copy is returned as fin (nil when no staging is needed). TEX never
// stages: each lane reads its coordinate before writing its own texel,
// the interpreter's order. Writes to read-only files are dropped, as
// Env.write does.
func (lc *LaneCompiled) compileLaneDst(in *Inst) (blk laneBlock, fin laneOp) {
	d := in.Dst
	w := lc.width
	real := laneBank(d.File, int(d.Reg), w)
	if real == nil || (d.File != FileTemp && d.File != FileOutput) {
		drop := make([]float32, 4*w)
		return func(e *LaneEnv) []float32 { return drop }, nil
	}
	ra, rb, rc := in.SrcLanes()
	if in.Op == OpTEX || !aliases(d, in.A, ra) && !aliases(d, in.B, rb) && !aliases(d, in.C, rc) {
		return real, nil
	}
	stage := func(e *LaneEnv) []float32 { return e.scratch[3] }
	mask := d.Mask
	fin = func(e *LaneEnv) {
		src := e.scratch[3]
		dst := real(e)
		for ci := 0; ci < 4; ci++ {
			if mask&(1<<uint(ci)) == 0 {
				continue
			}
			copy(dst[ci*w:ci*w+w], src[ci*w:ci*w+w])
		}
	}
	return stage, fin
}

// withFin chains the alias-staging copy after the op body.
func withFin(op laneOp, fin laneOp) laneOp {
	if fin == nil {
		return op
	}
	return func(e *LaneEnv) {
		op(e)
		fin(e)
	}
}

// compileLaneInst builds the lane closure for one non-control-flow
// instruction. The per-op lane rules (float32 vs float64, expression
// shapes) follow the float-precision audit at the top of this file.
func (lc *LaneCompiled) compileLaneInst(consts [][4]float32, in *Inst) laneOp {
	w := lc.width
	wd, fin := lc.compileLaneDst(in)
	switch in.Op {
	case OpTEX:
		// Only the active lanes fetch, so TexFetches and sampler calls
		// (the coherence tracker's included) are exact per lane.
		ra := lc.compileLaneSrc(consts, in.A, 0)
		sampler := int(in.SamplerIdx)
		uo, vo := ra.offs[0], ra.offs[1]
		// Masked destination components: slab offset plus texel lane index.
		var tcomps []laneComp
		for ci := 0; ci < 4; ci++ {
			if in.Dst.Mask&(1<<uint(ci)) != 0 {
				tcomps = append(tcomps, laneComp{d: ci * w, a: ci})
			}
		}
		return func(e *LaneEnv) {
			e.TexFetches += int64(len(e.active))
			ab, db := ra.blk(e), wd(e)
			for _, li := range e.active {
				l := int(li)
				u, v := ab[uo+l], ab[vo+l]
				var texel Vec4
				if sampler >= 0 && sampler < len(e.Samplers) && e.Samplers[sampler] != nil {
					texel = e.Samplers[sampler](u, v)
				} else if e.Sample != nil {
					texel = e.Sample(sampler, u, v)
				}
				for _, t := range tcomps {
					db[t.d+l] = texel[t.a]
				}
			}
		}
	case OpMOV:
		ra := lc.compileLaneSrc(consts, in.A, 0)
		comps := activeComps(w, in.Dst.Mask, &ra, nil, nil)
		return withFin(func(e *LaneEnv) {
			ab, db := ra.blk(e), wd(e)
			for _, t := range comps {
				copy(db[t.d:t.d+w], ab[t.a:t.a+w])
			}
		}, fin)
	case OpDP2, OpDP3, OpDP4:
		ra := lc.compileLaneSrc(consts, in.A, 0)
		rb := lc.compileLaneSrc(consts, in.B, 1)
		k := 2 + int(in.Op) - int(OpDP2)
		aoffs := ra.offs
		boffs := rb.offs
		comps := activeComps(w, in.Dst.Mask, nil, nil, nil)
		return withFin(func(e *LaneEnv) {
			ab, bb, db := ra.blk(e), rb.blk(e), wd(e)
			for l := 0; l < w; l++ {
				var s float32
				for i := 0; i < k; i++ {
					s += ab[aoffs[i]+l] * bb[boffs[i]+l]
				}
				for ci := range comps {
					db[comps[ci].d+l] = s
				}
			}
		}, fin)
	case OpMAD:
		ra := lc.compileLaneSrc(consts, in.A, 0)
		rb := lc.compileLaneSrc(consts, in.B, 1)
		rc := lc.compileLaneSrc(consts, in.C, 2)
		comps := activeComps(w, in.Dst.Mask, &ra, &rb, &rc)
		return withFin(func(e *LaneEnv) {
			ab, bb, cb, db := ra.blk(e), rb.blk(e), rc.blk(e), wd(e)
			for _, t := range comps {
				d := db[t.d : t.d+w : t.d+w]
				x := ab[t.a : t.a+w]
				y := bb[t.b : t.b+w]
				z := cb[t.c : t.c+w]
				for l := range d {
					d[l] = x[l]*y[l] + z[l]
				}
			}
		}, fin)
	case OpMUL24:
		ra := lc.compileLaneSrc(consts, in.A, 0)
		rb := lc.compileLaneSrc(consts, in.B, 1)
		comps := activeComps(w, in.Dst.Mask, &ra, &rb, nil)
		return withFin(func(e *LaneEnv) {
			ab, bb, db := ra.blk(e), rb.blk(e), wd(e)
			for _, t := range comps {
				d := db[t.d : t.d+w : t.d+w]
				x := ab[t.a : t.a+w]
				y := bb[t.b : t.b+w]
				for l := range d {
					d[l] = quant24(x[l]) * quant24(y[l])
				}
			}
		}, fin)
	case OpCLAMP:
		ra := lc.compileLaneSrc(consts, in.A, 0)
		rb := lc.compileLaneSrc(consts, in.B, 1)
		rc := lc.compileLaneSrc(consts, in.C, 2)
		comps := activeComps(w, in.Dst.Mask, &ra, &rb, &rc)
		return withFin(func(e *LaneEnv) {
			ab, bb, cb, db := ra.blk(e), rb.blk(e), rc.blk(e), wd(e)
			for _, t := range comps {
				d := db[t.d : t.d+w : t.d+w]
				x := ab[t.a : t.a+w]
				lo := bb[t.b : t.b+w]
				hi := cb[t.c : t.c+w]
				for l := range d {
					v := x[l]
					if v < lo[l] {
						v = lo[l]
					}
					if v > hi[l] {
						v = hi[l]
					}
					d[l] = v
				}
			}
		}, fin)
	case OpSEL:
		ra := lc.compileLaneSrc(consts, in.A, 0)
		rb := lc.compileLaneSrc(consts, in.B, 1)
		rc := lc.compileLaneSrc(consts, in.C, 2)
		comps := activeComps(w, in.Dst.Mask, &ra, &rb, &rc)
		return withFin(func(e *LaneEnv) {
			ab, bb, cb, db := ra.blk(e), rb.blk(e), rc.blk(e), wd(e)
			for _, t := range comps {
				d := db[t.d : t.d+w : t.d+w]
				x := ab[t.a : t.a+w]
				y := bb[t.b : t.b+w]
				z := cb[t.c : t.c+w]
				for l := range d {
					if x[l] != 0 {
						d[l] = y[l]
					} else {
						d[l] = z[l]
					}
				}
			}
		}, fin)
	case OpADD:
		return lc.laneBin(consts, in, fin, wd, func(d, x, y []float32) {
			for l := range d {
				d[l] = x[l] + y[l]
			}
		})
	case OpSUB:
		return lc.laneBin(consts, in, fin, wd, func(d, x, y []float32) {
			for l := range d {
				d[l] = x[l] - y[l]
			}
		})
	case OpMUL:
		return lc.laneBin(consts, in, fin, wd, func(d, x, y []float32) {
			for l := range d {
				d[l] = x[l] * y[l]
			}
		})
	case OpDIV:
		return lc.laneBin(consts, in, fin, wd, func(d, x, y []float32) {
			for l := range d {
				d[l] = x[l] / y[l]
			}
		})
	case OpMIN:
		return lc.laneBin(consts, in, fin, wd, func(d, x, y []float32) {
			for l := range d {
				d[l] = min32(x[l], y[l])
			}
		})
	case OpMAX:
		return lc.laneBin(consts, in, fin, wd, func(d, x, y []float32) {
			for l := range d {
				d[l] = max32(x[l], y[l])
			}
		})
	case OpSLT:
		return lc.laneCmp(consts, in, fin, wd, func(x, y float32) bool { return x < y })
	case OpSLE:
		return lc.laneCmp(consts, in, fin, wd, func(x, y float32) bool { return x <= y })
	case OpSGT:
		return lc.laneCmp(consts, in, fin, wd, func(x, y float32) bool { return x > y })
	case OpSGE:
		return lc.laneCmp(consts, in, fin, wd, func(x, y float32) bool { return x >= y })
	case OpSEQ:
		return lc.laneCmp(consts, in, fin, wd, func(x, y float32) bool { return x == y })
	case OpSNE:
		return lc.laneCmp(consts, in, fin, wd, func(x, y float32) bool { return x != y })
	case OpRCP:
		ra := lc.compileLaneSrc(consts, in.A, 0)
		comps := activeComps(w, in.Dst.Mask, &ra, nil, nil)
		return withFin(func(e *LaneEnv) {
			ab, db := ra.blk(e), wd(e)
			for _, t := range comps {
				d := db[t.d : t.d+w : t.d+w]
				x := ab[t.a : t.a+w]
				for l := range d {
					d[l] = 1 / x[l]
				}
			}
		}, fin)
	case OpQUANT:
		ra := lc.compileLaneSrc(consts, in.A, 0)
		comps := activeComps(w, in.Dst.Mask, &ra, nil, nil)
		return withFin(func(e *LaneEnv) {
			ab, db := ra.blk(e), wd(e)
			for _, t := range comps {
				d := db[t.d : t.d+w : t.d+w]
				x := ab[t.a : t.a+w]
				for l := range d {
					d[l] = QuantizeChannel(x[l])
				}
			}
		}, fin)
	case OpSGN:
		ra := lc.compileLaneSrc(consts, in.A, 0)
		comps := activeComps(w, in.Dst.Mask, &ra, nil, nil)
		return withFin(func(e *LaneEnv) {
			ab, db := ra.blk(e), wd(e)
			for _, t := range comps {
				d := db[t.d : t.d+w : t.d+w]
				x := ab[t.a : t.a+w]
				for l := range d {
					v := x[l]
					switch {
					case v > 0:
						d[l] = 1
					case v < 0:
						d[l] = -1
					default:
						d[l] = 0
					}
				}
			}
		}, fin)
	case OpABS, OpFLR, OpCEIL, OpFRC, OpRSQ, OpSQRT, OpEX2, OpLG2,
		OpEXP, OpLOG, OpSIN, OpCOS, OpTAN, OpASIN, OpACOS, OpATAN:
		f := f64Unary(in.Op)
		ra := lc.compileLaneSrc(consts, in.A, 0)
		comps := activeComps(w, in.Dst.Mask, &ra, nil, nil)
		return withFin(func(e *LaneEnv) {
			ab, db := ra.blk(e), wd(e)
			for _, t := range comps {
				d := db[t.d : t.d+w : t.d+w]
				x := ab[t.a : t.a+w]
				for l := range d {
					d[l] = float32(f(float64(x[l])))
				}
			}
		}, fin)
	case OpPOW, OpATAN2:
		f := math64Pow
		if in.Op == OpATAN2 {
			f = math64Atan2
		}
		return lc.laneBin(consts, in, fin, wd, func(d, x, y []float32) {
			for l := range d {
				d[l] = float32(f(float64(x[l]), float64(y[l])))
			}
		})
	}
	return nil
}

// laneBin compiles a two-source componentwise op with the inner loop body
// supplied by the caller; the body sees exact-length slabs so every index
// is bounds-check free.
func (lc *LaneCompiled) laneBin(consts [][4]float32, in *Inst, fin laneOp, wd laneBlock, body func(d, x, y []float32)) laneOp {
	w := lc.width
	ra := lc.compileLaneSrc(consts, in.A, 0)
	rb := lc.compileLaneSrc(consts, in.B, 1)
	comps := activeComps(w, in.Dst.Mask, &ra, &rb, nil)
	return withFin(func(e *LaneEnv) {
		ab, bb, db := ra.blk(e), rb.blk(e), wd(e)
		for _, t := range comps {
			body(db[t.d:t.d+w:t.d+w], ab[t.a:t.a+w], bb[t.b:t.b+w])
		}
	}, fin)
}

// laneCmp compiles a comparison op (result 1.0/0.0 per lane).
func (lc *LaneCompiled) laneCmp(consts [][4]float32, in *Inst, fin laneOp, wd laneBlock, cmp func(x, y float32) bool) laneOp {
	return lc.laneBin(consts, in, fin, wd, func(d, x, y []float32) {
		for l := range d {
			if cmp(x[l], y[l]) {
				d[l] = 1
			} else {
				d[l] = 0
			}
		}
	})
}

// f64Unary maps a unary transcendental opcode to its interpreter float64
// function.
func f64Unary(op Op) func(float64) float64 {
	switch op {
	case OpABS:
		return math.Abs
	case OpFLR:
		return math.Floor
	case OpCEIL:
		return math.Ceil
	case OpFRC:
		return func(x float64) float64 { return x - math.Floor(x) }
	case OpRSQ:
		return func(x float64) float64 { return 1 / math.Sqrt(x) }
	case OpSQRT:
		return math.Sqrt
	case OpEX2:
		return math.Exp2
	case OpLG2:
		return math.Log2
	case OpEXP:
		return math.Exp
	case OpLOG:
		return math.Log
	case OpSIN:
		return math.Sin
	case OpCOS:
		return math.Cos
	case OpTAN:
		return math.Tan
	case OpASIN:
		return math.Asin
	case OpACOS:
		return math.Acos
	default:
		return math.Atan
	}
}

var (
	math64Pow   = math.Pow
	math64Atan2 = math.Atan2
)

// min32 / max32 reproduce float32(math.Min/Max(float64(x), float64(y)))
// bit-for-bit, including math.Min/Max's special-case order: the dominating
// infinity is checked BEFORE NaN (math.Min(-Inf, NaN) is -Inf, not NaN),
// any remaining NaN collapses to the canonical float32 NaN (exactly what
// the float64 round-trip produces), and ±0 selection follows the sign bit.
// For ordinary operands the comparison is exact because float32→float64
// conversion is.
func min32(x, y float32) float32 {
	switch {
	case math.IsInf(float64(x), -1) || math.IsInf(float64(y), -1):
		return float32(math.Inf(-1))
	case x != x || y != y:
		return float32(math.NaN())
	case x == 0 && x == y:
		if math.Signbit(float64(x)) {
			return x
		}
		return y
	}
	if x < y {
		return x
	}
	return y
}

func max32(x, y float32) float32 {
	switch {
	case math.IsInf(float64(x), 1) || math.IsInf(float64(y), 1):
		return float32(math.Inf(1))
	case x != x || y != y:
		return float32(math.NaN())
	case x == 0 && x == y:
		if math.Signbit(float64(x)) {
			return y
		}
		return x
	}
	if x > y {
		return x
	}
	return y
}

// resolveConst folds a constant-pool operand (with swizzle and negation)
// into a value at compile time; out-of-range pool indices read zero,
// exactly as constAt does.
func resolveConst(consts [][4]float32, s Src) Vec4 {
	var base Vec4
	if int(s.Reg) < len(consts) {
		base = Vec4(consts[s.Reg])
	}
	r := Vec4{base[s.Swiz[0]&3], base[s.Swiz[1]&3], base[s.Swiz[2]&3], base[s.Swiz[3]&3]}
	if s.Neg {
		r[0], r[1], r[2], r[3] = -r[0], -r[1], -r[2], -r[3]
	}
	return r
}
