package analysis

import (
	"fmt"
	"sort"

	"gles2gpgpu/internal/glsl"
	"gles2gpgpu/internal/shader"
)

// glslint diagnostics.
//
// The warnings target the paper's "Kernel Code" optimisation list (§II,
// Fig. 3): arithmetic that misses the MAD fusion the hardware gives away
// for free, expanded code where a single-instruction builtin (dot, clamp)
// exists, and per-device limit headroom so a kernel author can see how
// close a block size is to the Fig. 4b compile cliff. Correctness warnings
// (reads of possibly-uninitialised registers, fragments that are always
// discarded) come from the same dataflow facts.

// Severity ranks a finding.
type Severity int

// Severities, in ascending order.
const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	}
	return "info"
}

// Finding is one diagnostic, positioned in the original GLSL source.
type Finding struct {
	Code string // stable machine-readable rule name
	Sev  Severity
	Pos  glsl.Pos // zero when no single source location applies
	Msg  string
}

func (f Finding) String() string {
	if f.Pos.Line != 0 {
		return fmt.Sprintf("%d:%d: %s: [%s] %s", f.Pos.Line, f.Pos.Col, f.Sev, f.Code, f.Msg)
	}
	return fmt.Sprintf("%s: [%s] %s", f.Sev, f.Code, f.Msg)
}

// Lint runs every diagnostic rule on p and checks it against the given
// device profiles (nil profiles skips the limit section). Findings are
// ordered by severity (errors first), then source position.
func Lint(p *shader.Program, profiles []LimitProfile) []Finding {
	var fs []Finding
	if len(p.Insts) > 0 {
		cfg := BuildCFG(p)
		du := SolveDefUse(cfg)
		sccp := SolveSCCP(cfg)
		uni := SolveUniformity(cfg, sccp)
		rng := SolveRanges(cfg, sccp)
		foot := SolveFootprint(cfg, du, sccp)
		fs = append(fs, lintMadFusion(p, du, sccp)...)
		fs = append(fs, lintBuiltins(p, du, sccp)...)
		fs = append(fs, lintUninitReads(p, sccp)...)
		fs = append(fs, lintAlwaysDiscard(cfg, sccp)...)
		fs = append(fs, lintUniformBranches(p, uni, sccp)...)
		fs = append(fs, lintDivergentDiscards(p, uni, sccp)...)
		fs = append(fs, lintDeadClamps(p, rng, sccp)...)
		fs = append(fs, lintFootprints(p, foot)...)
		res := CountResources(cfg)
		for _, lp := range profiles {
			fs = append(fs, CheckLimits(p, res, lp)...)
		}
		fs = append(fs, lintLaneEligibility(p)...)
		fs = append(fs, lintFusionEligibility(p)...)
	}
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Sev != fs[j].Sev {
			return fs[i].Sev > fs[j].Sev
		}
		if fs[i].Pos.Line != fs[j].Pos.Line {
			return fs[i].Pos.Line < fs[j].Pos.Line
		}
		return fs[i].Pos.Col < fs[j].Pos.Col
	})
	return fs
}

// singleConsumer reports whether every use of definition d happens at one
// instruction, and returns it.
func singleConsumer(du *DefUse, d int) (int, bool) {
	insts := UseInsts(du.Uses[d])
	if len(insts) != 1 {
		return -1, false
	}
	return insts[0], true
}

// chaseCopies follows the unique definition of operand k of instruction i
// through single-use MOVs between writable registers and returns the
// instruction that actually produces the value, or -1.
func chaseCopies(p *shader.Program, du *DefUse, i, k int) int {
	d := du.OperandDef(i, k)
	for d >= 0 && p.Insts[d].Op == shader.OpMOV {
		if _, ok := singleConsumer(du, d); !ok {
			break
		}
		nd := du.OperandDef(d, 0)
		if nd < 0 {
			break
		}
		d = nd
	}
	return d
}

// producedBySingleUseMul reports whether operand k of instruction i is fed
// (through copies) by a MUL whose value has no other consumer.
func producedBySingleUseMul(p *shader.Program, du *DefUse, i, k int) (int, bool) {
	d := chaseCopies(p, du, i, k)
	if d < 0 || p.Insts[d].Op != shader.OpMUL {
		return -1, false
	}
	if _, ok := singleConsumer(du, d); !ok {
		return -1, false
	}
	return d, true
}

// lintMadFusion flags ADD/SUB instructions fed by a single-use MUL: the
// multiply-add would fuse into one MAD if written as a single expression,
// halving its ALU cost (MUL costs 2 cycles, MAD costs 2, ADD costs 1:
// MUL+ADD = 3 vs MAD = 2).
func lintMadFusion(p *shader.Program, du *DefUse, sccp *SCCP) []Finding {
	var fs []Finding
	for i := range p.Insts {
		in := &p.Insts[i]
		if !sccp.Reachable[i] || (in.Op != shader.OpADD && in.Op != shader.OpSUB) {
			continue
		}
		for k := 0; k < 2; k++ {
			if _, ok := producedBySingleUseMul(p, du, i, k); ok {
				fs = append(fs, Finding{
					Code: "mad-fusion",
					Sev:  SevWarning,
					Pos:  in.SrcPos,
					Msg: "multiply and add compiled as separate instructions; " +
						"written as a single a*b+c expression they fuse into one MAD " +
						"(2 cycles instead of 3)",
				})
				break
			}
		}
	}
	return fs
}

// mulRegPair identifies the registers a MUL (or the A/B part of a MAD)
// multiplies, ignoring swizzles, for dot-product shape matching.
type mulRegPair struct {
	f0   shader.RegFile
	r0   uint16
	f1   shader.RegFile
	r1   uint16
	lane [2]uint8 // first read lane of each side, to require distinct lanes
}

func regPairOf(in *shader.Inst) mulRegPair {
	pr := mulRegPair{f0: in.A.File, r0: in.A.Reg, f1: in.B.File, r1: in.B.Reg,
		lane: [2]uint8{in.A.Swiz[0] & 3, in.B.Swiz[0] & 3}}
	if pr.f1 < pr.f0 || (pr.f1 == pr.f0 && pr.r1 < pr.r0) {
		pr.f0, pr.r0, pr.f1, pr.r1 = pr.f1, pr.r1, pr.f0, pr.r0
		pr.lane[0], pr.lane[1] = pr.lane[1], pr.lane[0]
	}
	return pr
}

func sameRegs(a, b mulRegPair) bool {
	return a.f0 == b.f0 && a.r0 == b.r0 && a.f1 == b.f1 && a.r1 == b.r1
}

// lintBuiltins flags expanded code with a single-instruction builtin
// equivalent: a sum of lane products of the same two registers (dot), and
// min-of-max chains (clamp).
func lintBuiltins(p *shader.Program, du *DefUse, sccp *SCCP) []Finding {
	var fs []Finding
	dotFinding := func(in *shader.Inst) Finding {
		return Finding{
			Code: "builtin-dot",
			Sev:  SevWarning,
			Pos:  in.SrcPos,
			Msg: "expanded dot product (sum of lane products of the same vectors); " +
				"the dot() builtin compiles to a single DPn instruction",
		}
	}
	for i := range p.Insts {
		in := &p.Insts[i]
		if !sccp.Reachable[i] {
			continue
		}
		switch in.Op {
		case shader.OpADD:
			// mul(a,b) + mul(a,b) over different lanes.
			d0, ok0 := producedBySingleUseMul(p, du, i, 0)
			d1, ok1 := producedBySingleUseMul(p, du, i, 1)
			if ok0 && ok1 && d0 != d1 {
				p0, p1 := regPairOf(&p.Insts[d0]), regPairOf(&p.Insts[d1])
				if sameRegs(p0, p1) && p0.lane != p1.lane {
					fs = append(fs, dotFinding(in))
				}
			}
		case shader.OpMAD:
			// The compiler fuses the first product of a hand-expanded dot:
			// a.x*b.x + a.y*b.y becomes MAD(a.x, b.x, MUL(a.y, b.y)).
			d, ok := producedBySingleUseMul(p, du, i, 2)
			if ok {
				pm := regPairOf(&p.Insts[d])
				pa := regPairOf(in)
				if sameRegs(pm, pa) && pm.lane != pa.lane {
					fs = append(fs, dotFinding(in))
				}
			}
		case shader.OpMIN:
			for k := 0; k < 2; k++ {
				d := chaseCopies(p, du, i, k)
				if d < 0 || p.Insts[d].Op != shader.OpMAX {
					continue
				}
				if _, ok := singleConsumer(du, d); !ok {
					continue
				}
				fs = append(fs, Finding{
					Code: "builtin-clamp",
					Sev:  SevWarning,
					Pos:  in.SrcPos,
					Msg: "min(max(x, lo), hi) compiled as two instructions; " +
						"the clamp() builtin compiles to a single CLAMP",
				})
				break
			}
		}
	}
	return fs
}

// lintLaneEligibility reports whether the GLES fast path shades the
// program on the lane-batched SoA engine (an info note, not a defect):
// admitted programs shade batches of fragments through each instruction
// at once, with per-lane resume points across forward branches, while
// the rest run per fragment. The verdict is shader.LaneFallbackAt, the
// rule the draw applies, so the lint reports what the draw does. Vertex
// programs are skipped: the lane engine shades fragments only.
func lintLaneEligibility(p *shader.Program) []Finding {
	if p.Stage != glsl.StageFragment {
		return nil
	}
	pc, reason := shader.LaneFallbackAt(p)
	if pc < 0 {
		return []Finding{{
			Code: "lane-eligible",
			Sev:  SevInfo,
			Msg: "the lane-batched engine shades batches of fragments through " +
				"each instruction at once, with per-lane masks across forward branches",
		}}
	}
	return []Finding{{
		Code: "lane-fallback",
		Sev:  SevInfo,
		Msg:  fmt.Sprintf("per-fragment execution: %s", reason),
		Pos:  p.Insts[pc].SrcPos,
	}}
}

// lintFusionEligibility reports whether the pipeline planner could fuse
// the kernel with an adjacent elementwise pass (an info note, mirroring
// lane eligibility): fusion-eligible kernels are straight-line, discard-
// free, and sample every texture exactly at the fullscreen-quad varying,
// so a producing or consuming pass can collapse into the same program.
// The probe is the planner's own (Elementwise over "v_tex"), so the lint
// verdict and the planner's per-edge decisions cannot drift apart — a
// lint test cross-checks them against real pipeline plans. Vertex
// programs and fragment programs with no samplers are skipped: fusion
// only concerns texture-to-texture chains.
func lintFusionEligibility(p *shader.Program) []Finding {
	if len(p.Samplers) == 0 {
		return nil
	}
	ok, why := Elementwise(p, "v_tex")
	if ok {
		return []Finding{{
			Code: "fusion-eligible",
			Sev:  SevInfo,
			Msg: "elementwise kernel (identity texel footprint on every sampler): " +
				"the pipeline planner can fuse it with an adjacent elementwise pass",
		}}
	}
	return []Finding{{
		Code: "fusion-blocked",
		Sev:  SevInfo,
		Msg: fmt.Sprintf("fusion-blocked(%s): the pipeline planner keeps this kernel "+
			"as its own pass", why),
	}}
}

// lintUninitReads flags reads of temp or output register components not
// written on every path from entry. Reading an output before writing it is
// particularly suspect: the GLES layer hands invocations recycled
// environments, so the value observed is the previous fragment's.
func lintUninitReads(p *shader.Program, sccp *SCCP) []Finding {
	m := p.MustWrite()
	var fs []Finding
	for i := range p.Insts {
		if !sccp.Reachable[i] {
			continue
		}
		in := &p.Insts[i]
		la, lb, lc := in.SrcLanes()
		for k, lanes := range [3]uint8{la, lb, lc} {
			s := *srcOperand(in, k)
			if lanes == 0 || (s.File != shader.FileTemp && s.File != shader.FileOutput) {
				continue
			}
			if m.SrcWrittenAt(i, s, lanes) {
				continue
			}
			what := "temporary"
			if s.File == shader.FileOutput {
				what = "output"
			}
			fs = append(fs, Finding{
				Code: "uninit-read",
				Sev:  SevWarning,
				Pos:  in.SrcPos,
				Msg: fmt.Sprintf("%s register %s may be read before it is written",
					what, s.String()),
			})
		}
	}
	return fs
}

// lintAlwaysDiscard flags shaders that can never produce a fragment:
// a reachable discard whose condition is constant true (every `discard`
// statement compiles to one — the guard is separate control flow) AND
// whose block dominates every non-discarding exit, so no invocation
// reaches an exit without first hitting the discard. A discard behind a
// data-dependent branch does not dominate the exits and stays silent.
func lintAlwaysDiscard(cfg *CFG, sccp *SCCP) []Finding {
	var fs []Finding
	if len(sccp.AlwaysDiscards) == 0 {
		return fs
	}
	doms := cfg.Dominators()
	exits := cfg.ExitBlocks()
	for _, i := range sccp.AlwaysDiscards {
		b := cfg.BlockOf[i]
		dominatesAll := len(exits) > 0
		for _, e := range exits {
			if !doms[e].Get(b) {
				dominatesAll = false
				break
			}
		}
		if !dominatesAll {
			continue
		}
		fs = append(fs, Finding{
			Code: "always-discard",
			Sev:  SevWarning,
			Pos:  cfg.Prog.Insts[i].SrcPos,
			Msg: "every fragment is discarded: the discard is unconditional and " +
				"on every path, so the shader never writes an output",
		})
	}
	return fs
}
