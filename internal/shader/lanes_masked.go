package shader

// Divergence-masked lane execution.
//
// The straight-line SoA engine (lanes.go) refuses any program with real
// control flow: a branch could send lanes down different paths and the
// whole-batch inner loops would compute the wrong thing. Jacobi — the one
// iterative kernel the paper's workloads center on — is exactly such a
// program, so the straight-line engine alone would leave it on the
// per-fragment interpreter.
//
// This file runs branchy programs through the same SoA register file under
// an active-lane mask. The proof obligations that make this sound (checked
// structurally by MaskedFallbackAt, cross-validated by the analysis
// package's mask-safety rule and its CFG/range lattices):
//
//   - Forward branches only. Every BR/BRZ target strictly exceeds its own
//     pc, so the program order is a topological order of the CFG and a
//     single linear pc sweep visits every instruction any lane can
//     execute, in that lane's own execution order. Loops are out: a
//     backward edge could diverge lanes unboundedly (the unroller removes
//     bounded loops before codegen, so this costs no generated kernel).
//   - No cross-lane dependence. IR lanes never interact (DPn reductions
//     stay within one lane's four components), so executing lane L's
//     instruction stream interleaved with other lanes' is equivalent to
//     running L alone — provided inactive lanes' registers are preserved,
//     which maskedDst guarantees by committing only active lanes.
//   - Side effects gated per lane. TEX fetch counts and sampler calls
//     happen for active lanes only (compileMaskedTex); KIL retires just
//     the discarding lane and flags it in LaneEnv.Discarded so scatter
//     paths skip its pixel; RET retires the lane without a flag.
//   - Cycle accounting reconstructible per lane. The interpreter charges
//     an instruction's cost *before* executing it, so a discarding KIL
//     charges its own cost and nothing after; charging cost × |active|
//     at each step therefore reproduces the per-lane interpreter totals
//     exactly, divergence and all.
//
// Execution model: each lane carries a resume pc (LaneEnv.nextPC). The
// sweep visits each step once; lanes whose resume pc matches are active.
// ALU steps stage the full-width result into scratch slab 3 and commit
// only active lanes, reusing the straight-line per-op bodies (and thereby
// their audited bit-identity rules) unchanged. A batch of N lanes is
// bit-identical — outputs, Discarded flags, Cycles, TexFetches — to N
// serial interpreter invocations.
//
// The masked form is strictly slower per instruction than the straight
// -line form (a full-width stage + masked commit per op, plus the active
// scan), so engines try the straight-line compile first and use masked
// only as the divergence fallback; both beat per-fragment interpretation.

import "fmt"

// maskedStep kinds. ALU steps carry a lane closure; control steps are
// interpreted by runMasked directly.
const (
	mskALU uint8 = iota // body over active lanes (stage + masked commit)
	mskNOP              // cost-only
	mskBR               // unconditional forward jump
	mskBRZ              // branch if cond.x == 0
	mskKIL              // discard lane if cond.x != 0
	mskRET              // retire lane
)

// maskedStep is one instruction slot of a masked program: its cost (charged
// per active lane, matching the interpreter's charge-before-execute order),
// and either an ALU body or the control operands runMasked interprets.
type maskedStep struct {
	kind   uint8
	cost   int64
	target int32   // mskBR/mskBRZ: resume pc on taken branch (retire sentinel when the jump leaves the program)
	body   laneOp  // mskALU
	cond   laneSrc // mskBRZ/mskKIL: operand A with swizzle/negation folded; .x decides
}

// MaskedFallbackReason reports why p cannot run on the divergence-masked
// lane engine, or "" when it is mask-eligible. Unlike LaneFallbackReason,
// forward branches, discard, and early return are all fine; only backward
// branches (potential divergence without bound) and unimplemented opcodes
// disqualify.
func MaskedFallbackReason(p *Program) string {
	_, reason := MaskedFallbackAt(p)
	return reason
}

// MaskedFallbackAt is MaskedFallbackReason with the offending instruction
// index attached for tooling (glslint's mask rule). pc is -1 when the
// program is mask-eligible.
func MaskedFallbackAt(p *Program) (pc int, reason string) {
	insts := p.Insts
	for i := range insts {
		in := &insts[i]
		switch in.Op {
		case OpBR, OpBRZ:
			if int(in.Target) <= i {
				return i, fmt.Sprintf("backward branch at pc %d to %d (lanes could diverge without bound)", i, in.Target)
			}
		case OpKIL, OpRET:
			// Per-lane retirement: fine anywhere under a mask.
		default:
			if !laneOpSupported(in.Op) {
				return i, fmt.Sprintf("opcode %s at pc %d has no lane implementation", in.Op, i)
			}
		}
	}
	return -1, ""
}

// MaskedLaneCompiled returns the divergence-masked lane form of p under
// cost at width, building it on first use and caching it on the Program
// (same one-entry keying as LaneCompiled, in a separate slot). Returns nil
// when the program has a backward branch, uses an unsupported opcode, or
// width is out of range; callers fall back to the per-fragment interpreter.
// Straight-line programs compile too (every step simply runs all-active),
// but engines should prefer LaneCompiled for those — it avoids the
// per-step stage/commit and active-lane scan.
func (p *Program) MaskedLaneCompiled(cost *CostModel, width int) *LaneCompiled {
	if c := p.lanesMasked.Load(); c != nil && c.cost == cost && c.width == width {
		if c.cyclesPerLane < 0 {
			return nil // cached ineligibility
		}
		return c
	}
	p.compileMu.Lock()
	defer p.compileMu.Unlock()
	if c := p.lanesMasked.Load(); c != nil && c.cost == cost && c.width == width {
		if c.cyclesPerLane < 0 {
			return nil
		}
		return c
	}
	c := compileMaskedLanes(p, cost, width)
	if c == nil {
		p.lanesMasked.Store(&LaneCompiled{prog: p, cost: cost, width: width, masked: true, cyclesPerLane: -1})
		return nil
	}
	p.lanesMasked.Store(c)
	return c
}

// compileMaskedLanes translates p's instruction stream with (forward-only)
// control flow into masked steps; nil when p is mask-ineligible or the
// width is out of range.
func compileMaskedLanes(p *Program, cost *CostModel, width int) *LaneCompiled {
	if width < 2 || width > MaxLaneWidth {
		return nil
	}
	if pc, _ := MaskedFallbackAt(p); pc >= 0 {
		return nil
	}
	lc := &LaneCompiled{prog: p, cost: cost, width: width, masked: true}
	insts, consts := p.Insts, p.Consts
	for i := range insts {
		in := &insts[i]
		st := maskedStep{kind: mskNOP, cost: cost.InstCost(in)}
		switch in.Op {
		case OpNOP:
			// cost-only
		case OpRET:
			st.kind = mskRET
		case OpBR:
			st.kind = mskBR
			st.target = maskedTarget(in.Target, len(insts))
		case OpBRZ:
			st.kind = mskBRZ
			st.target = maskedTarget(in.Target, len(insts))
			st.cond = lc.compileLaneSrc(consts, in.A, 0)
		case OpKIL:
			st.kind = mskKIL
			st.cond = lc.compileLaneSrc(consts, in.A, 0)
		default:
			fn := lc.compileLaneInst(consts, in)
			if fn == nil {
				return nil
			}
			st.kind = mskALU
			st.body = fn
		}
		lc.steps = append(lc.steps, st)
	}
	return lc
}

// maskedTarget clamps a branch target to the retire sentinel when the jump
// leaves the program (the interpreter's pc sweep simply exits its loop).
func maskedTarget(t int32, n int) int32 {
	if int(t) >= n {
		return int32(n)
	}
	return t
}

// runMasked executes the batch of e.N lanes under the active-lane mask.
// Called from Run with n > 0.
func (lc *LaneCompiled) runMasked(e *LaneEnv) {
	n := e.N
	np := e.nextPC
	for l := 0; l < n; l++ {
		np[l] = 0
		e.Discarded[l] = false
	}
	retire := int32(len(lc.steps))
	live := n
	for pc := range lc.steps {
		if live == 0 {
			break
		}
		act := e.maskAct[:0]
		cur := int32(pc)
		for l := 0; l < n; l++ {
			if np[l] == cur {
				act = append(act, int32(l))
			}
		}
		if len(act) == 0 {
			continue
		}
		st := &lc.steps[pc]
		// The interpreter charges cost before executing, so a discarding
		// KIL charges itself; per-step charging matches that exactly.
		e.Cycles += st.cost * int64(len(act))
		next := cur + 1
		switch st.kind {
		case mskALU:
			e.maskAct = act // op bodies and masked commits read the active set
			st.body(e)
			for _, l := range act {
				np[l] = next
			}
		case mskNOP:
			for _, l := range act {
				np[l] = next
			}
		case mskBR:
			for _, l := range act {
				np[l] = st.target
			}
			if st.target >= retire {
				live -= len(act)
			}
		case mskBRZ:
			cb := st.cond.blk(e)
			off := st.cond.offs[0]
			taken := st.target
			exits := taken >= retire
			for _, l := range act {
				if cb[off+int(l)] == 0 {
					np[l] = taken
					if exits {
						live--
					}
				} else {
					np[l] = next
				}
			}
		case mskKIL:
			cb := st.cond.blk(e)
			off := st.cond.offs[0]
			for _, l := range act {
				if cb[off+int(l)] != 0 {
					e.Discarded[l] = true
					np[l] = retire
					live--
				} else {
					np[l] = next
				}
			}
		case mskRET:
			for _, l := range act {
				np[l] = retire
			}
			live -= len(act)
		}
	}
	e.maskAct = e.maskAct[:0]
}

// maskedDst is compileLaneDst's destination resolver for masked programs:
// ops stage into scratch slab 3 unconditionally and the commit closure
// copies only the masked components of the active lanes into the real
// register, preserving inactive lanes for when they resume.
func (lc *LaneCompiled) maskedDst(real laneBlock, mask uint8) (laneBlock, laneOp) {
	w := lc.width
	stage := func(e *LaneEnv) []float32 { return e.scratch[3] }
	fin := func(e *LaneEnv) {
		src := e.scratch[3]
		dst := real(e)
		act := e.maskAct
		if len(act) == e.N {
			// All lanes active (no divergence yet): whole-slab copies.
			// Lanes N..W-1 hold garbage that is never observed.
			for ci := 0; ci < 4; ci++ {
				if mask&(1<<uint(ci)) != 0 {
					copy(dst[ci*w:ci*w+w], src[ci*w:ci*w+w])
				}
			}
			return
		}
		for ci := 0; ci < 4; ci++ {
			if mask&(1<<uint(ci)) == 0 {
				continue
			}
			base := ci * w
			for _, l := range act {
				dst[base+int(l)] = src[base+int(l)]
			}
		}
	}
	return stage, fin
}

// compileMaskedTex builds the masked TEX body: fetches happen for active
// lanes only, so TexFetches and sampler side effects are exact per lane.
// Writes go straight to the destination register per lane (no staging
// needed — each lane's coordinate is read before that lane's write, the
// same order the interpreter uses, so destination-aliasing is safe).
func (lc *LaneCompiled) compileMaskedTex(consts [][4]float32, in *Inst) laneOp {
	w := lc.width
	ra := lc.compileLaneSrc(consts, in.A, 0)
	sampler := int(in.SamplerIdx)
	uo, vo := ra.offs[0], ra.offs[1]
	d := in.Dst
	real := laneBank(d.File, int(d.Reg), w)
	writable := real != nil && (d.File == FileTemp || d.File == FileOutput)
	var tcomps []laneComp
	for ci := 0; ci < 4; ci++ {
		if d.Mask&(1<<uint(ci)) != 0 {
			tcomps = append(tcomps, laneComp{d: ci * w, a: ci})
		}
	}
	return func(e *LaneEnv) {
		act := e.maskAct
		e.TexFetches += int64(len(act))
		ab := ra.blk(e)
		var db []float32
		if writable {
			db = real(e)
		}
		for _, li := range act {
			l := int(li)
			u, v := ab[uo+l], ab[vo+l]
			var texel Vec4
			if sampler >= 0 && sampler < len(e.Samplers) && e.Samplers[sampler] != nil {
				texel = e.Samplers[sampler](u, v)
			} else if e.Sample != nil {
				texel = e.Sample(sampler, u, v)
			}
			if db != nil {
				for _, t := range tcomps {
					db[t.d+l] = texel[t.a]
				}
			}
		}
	}
}
