package analysis

import (
	"math"

	"gles2gpgpu/internal/shader"
)

// Value-range analysis.
//
// The lattice per register component is an interval [Lo, Hi] of attainable
// float32 values (tracked as float64 endpoints) plus a may-be-NaN flag;
// top is [-inf, +inf] with NaN possible. The analysis composes with SCCP:
// operands SCCP proved constant contribute point intervals, and
// SCCP-unreachable code is skipped. Transfer functions are sound outward
// enclosures, not exact images — every endpoint computed from interval
// arithmetic is widened by one float32 ulp so the runtime's
// round-to-nearest float32 results provably stay inside, and any operator
// without a careful enclosure returns top. "Provably X" findings
// (provably-dead-clamp) may therefore miss, but never lie.
//
// The solve runs one pass over a topological order of the CFG, joining
// interval states at block entries; BRZ edges pruned by SCCP's constant
// conditions propagate nothing. Cyclic CFGs (never emitted by the GLSL
// back end, whose loops are fully unrolled, but constructible by hand)
// report AllTop instead of iterating to a widened fixpoint: the clients —
// dead-clamp proofs and branch-condition boundedness for the lane
// engine's termination story — only care about the acyclic case, where
// every path executes at most len(Insts) instructions and the interval
// facts are exact joins over the finitely many paths.

// Interval is one lattice element: the closed float64 enclosure of a
// component's attainable float32 values, plus NaN possibility. Lo > Hi
// encodes the empty interval (a value that is always NaN).
type Interval struct {
	Lo, Hi float64
	NaN    bool
}

// TopInterval is the no-information element.
func TopInterval() Interval {
	return Interval{Lo: math.Inf(-1), Hi: math.Inf(1), NaN: true}
}

func pointInterval(v float64) Interval {
	if math.IsNaN(v) {
		return Interval{Lo: math.Inf(1), Hi: math.Inf(-1), NaN: true}
	}
	return Interval{Lo: v, Hi: v}
}

// Bounded reports that every value in the interval is a finite non-NaN
// float32 — the proof obligation for "this branch condition cannot be NaN
// or infinite".
func (iv Interval) Bounded() bool {
	return !iv.NaN && !math.IsInf(iv.Lo, 0) && !math.IsInf(iv.Hi, 0) && iv.Lo <= iv.Hi
}

func (iv Interval) empty() bool { return iv.Lo > iv.Hi }

func joinInterval(a, b Interval) Interval {
	if a.empty() {
		b.NaN = b.NaN || a.NaN
		return b
	}
	if b.empty() {
		a.NaN = a.NaN || b.NaN
		return a
	}
	return Interval{Lo: math.Min(a.Lo, b.Lo), Hi: math.Max(a.Hi, b.Hi), NaN: a.NaN || b.NaN}
}

func (iv Interval) neg() Interval {
	if iv.empty() {
		return iv
	}
	return Interval{Lo: -iv.Hi, Hi: -iv.Lo, NaN: iv.NaN}
}

// widen pushes the endpoints one float32 ulp outward, absorbing both the
// float64 rounding of the endpoint computation and the runtime's
// round-to-nearest float32 of results strictly between computed endpoints.
func widen(iv Interval) Interval {
	if iv.empty() {
		return iv
	}
	if !math.IsInf(iv.Lo, 0) {
		iv.Lo = float64(math.Nextafter32(float32(iv.Lo), float32(math.Inf(-1))))
	}
	if !math.IsInf(iv.Hi, 0) {
		iv.Hi = float64(math.Nextafter32(float32(iv.Hi), float32(math.Inf(1))))
	}
	return iv
}

// contains0 and hasInf feed the 0*inf / inf-inf NaN checks that corner
// evaluation alone can miss (the NaN-producing operand pair can lie
// strictly inside the intervals).
func (iv Interval) contains0() bool { return iv.Lo <= 0 && iv.Hi >= 0 }
func (iv Interval) hasInf() bool    { return math.IsInf(iv.Lo, 0) || math.IsInf(iv.Hi, 0) }

func addIntervals(a, b Interval) Interval {
	if a.empty() || b.empty() {
		return TopInterval()
	}
	nan := a.NaN || b.NaN || (a.hasInf() && b.hasInf())
	return widen(Interval{Lo: a.Lo + b.Lo, Hi: a.Hi + b.Hi, NaN: nan})
}

func subIntervals(a, b Interval) Interval { return addIntervals(a, b.neg()) }

func mulIntervals(a, b Interval) Interval {
	if a.empty() || b.empty() {
		return TopInterval()
	}
	nan := a.NaN || b.NaN ||
		(a.hasInf() && b.contains0()) || (b.hasInf() && a.contains0())
	c := [4]float64{a.Lo * b.Lo, a.Lo * b.Hi, a.Hi * b.Lo, a.Hi * b.Hi}
	lo, hi := c[0], c[0]
	for _, v := range c[1:] {
		if math.IsNaN(v) {
			nan = true
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if math.IsNaN(c[0]) {
		return TopInterval()
	}
	return widen(Interval{Lo: lo, Hi: hi, NaN: nan})
}

func minIntervals(a, b Interval) Interval {
	if a.empty() || b.empty() {
		return TopInterval()
	}
	return Interval{Lo: math.Min(a.Lo, b.Lo), Hi: math.Min(a.Hi, b.Hi), NaN: a.NaN || b.NaN}
}

func maxIntervals(a, b Interval) Interval {
	if a.empty() || b.empty() {
		return TopInterval()
	}
	return Interval{Lo: math.Max(a.Lo, b.Lo), Hi: math.Max(a.Hi, b.Hi), NaN: a.NaN || b.NaN}
}

// monotoneUnary encloses a weakly monotone increasing f over iv, widened.
func monotoneUnary(iv Interval, f func(float64) float64, nanIn bool) Interval {
	if iv.empty() {
		return TopInterval()
	}
	lo, hi := f(iv.Lo), f(iv.Hi)
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return TopInterval()
	}
	return widen(Interval{Lo: lo, Hi: hi, NaN: iv.NaN || nanIn})
}

// Ranges holds the solved interval facts for one program.
type Ranges struct {
	// Operand[i][k][l] is the interval of post-swizzle, post-negation lane
	// l of operand k of instruction i (top for unread lanes).
	Operand [][3][4]Interval
	// AllTop is set for cyclic CFGs, where the single-pass solve does not
	// apply and every fact is top.
	AllTop bool

	cfg *CFG
}

// SolveRanges runs the analysis over c, composing with sccp (required).
func SolveRanges(c *CFG, sccp *SCCP) *Ranges {
	p := c.Prog
	n := len(p.Insts)
	r := &Ranges{Operand: make([][3][4]Interval, n), cfg: c}
	for i := range r.Operand {
		for k := 0; k < 3; k++ {
			for l := 0; l < 4; l++ {
				r.Operand[i][k][l] = TopInterval()
			}
		}
	}
	if n == 0 {
		return r
	}
	topo, acyclic := c.Acyclic()
	if !acyclic {
		r.AllTop = true
		return r
	}
	comps := 4 * (p.NumTemps + p.NumOutputs)
	compOf := func(file shader.RegFile, reg uint16, cc int) int {
		if file == shader.FileTemp {
			return int(reg)*4 + cc
		}
		return (p.NumTemps+int(reg))*4 + cc
	}

	laneIv := func(state []Interval, src shader.Src, l int) Interval {
		cc := int(src.Swiz[l] & 3)
		var iv Interval
		switch src.File {
		case shader.FileConst:
			if int(src.Reg) < len(p.Consts) {
				iv = pointInterval(float64(p.Consts[src.Reg][cc]))
			} else {
				iv = TopInterval()
			}
		case shader.FileTemp, shader.FileOutput:
			iv = state[compOf(src.File, src.Reg, cc)]
		default: // uniforms and inputs: any float32
			iv = TopInterval()
		}
		if src.Neg {
			iv = iv.neg()
		}
		return iv
	}

	// operandIv resolves lane l of operand k of instruction i: the SCCP
	// constant when proven (exact point interval), else the dataflow state.
	operandIv := func(state []Interval, i, k, l int, src shader.Src) Interval {
		if oc := sccp.Operand[i][k]; oc.OK {
			return pointInterval(float64(oc.V[l]))
		}
		return laneIv(state, src, l)
	}

	// resultIv computes the written interval of one destination lane.
	resultIv := func(in *shader.Inst, a, b, cIv Interval) Interval {
		switch in.Op {
		case shader.OpMOV:
			return a
		case shader.OpADD:
			return addIntervals(a, b)
		case shader.OpSUB:
			return subIntervals(a, b)
		case shader.OpMUL:
			return mulIntervals(a, b)
		case shader.OpMAD:
			return addIntervals(mulIntervals(a, b), cIv)
		case shader.OpMIN:
			return minIntervals(a, b)
		case shader.OpMAX:
			return maxIntervals(a, b)
		case shader.OpCLAMP: // min(max(a, b), c)
			return minIntervals(maxIntervals(a, b), cIv)
		case shader.OpABS:
			if a.empty() {
				return TopInterval()
			}
			lo := 0.0
			if a.Lo > 0 {
				lo = a.Lo
			} else if a.Hi < 0 {
				lo = -a.Hi
			}
			return Interval{Lo: lo, Hi: math.Max(math.Abs(a.Lo), math.Abs(a.Hi)), NaN: a.NaN}
		case shader.OpSGN:
			return Interval{Lo: -1, Hi: 1, NaN: a.NaN}
		case shader.OpFLR:
			return monotoneUnary(a, math.Floor, false)
		case shader.OpCEIL:
			return monotoneUnary(a, math.Ceil, false)
		case shader.OpFRC:
			// x - floor(x) is in [0, 1) mathematically; float32 rounding
			// keeps it in [0, 1]. NaN for NaN or infinite inputs.
			return Interval{Lo: 0, Hi: 1, NaN: a.NaN || a.hasInf()}
		case shader.OpSIN, shader.OpCOS:
			return Interval{Lo: -1, Hi: 1, NaN: a.NaN || a.hasInf()}
		case shader.OpSLT, shader.OpSLE, shader.OpSGT, shader.OpSGE,
			shader.OpSEQ, shader.OpSNE:
			return Interval{Lo: 0, Hi: 1} // exactly {0, 1}; comparisons absorb NaN
		case shader.OpSEL:
			return joinInterval(b, cIv)
		case shader.OpSQRT:
			if a.empty() {
				return TopInterval()
			}
			return monotoneUnary(Interval{Lo: math.Max(a.Lo, 0), Hi: a.Hi, NaN: false},
				math.Sqrt, a.NaN || a.Lo < 0)
		case shader.OpEX2:
			return monotoneUnary(a, func(x float64) float64 { return math.Exp2(x) }, a.NaN)
		case shader.OpEXP:
			return monotoneUnary(a, math.Exp, a.NaN)
		case shader.OpATAN:
			return Interval{Lo: -math.Pi / 2, Hi: math.Pi / 2, NaN: a.NaN}
		case shader.OpTEX:
			// Texel decode: byte * (1/255) is always in [0, 1].
			return Interval{Lo: 0, Hi: 1}
		default:
			// DIV, RCP, RSQ, POW, LG2, LOG, TAN, ASIN, ACOS, ATAN2, MUL24,
			// DP2/3/4: no enclosure implemented; stay sound.
			return TopInterval()
		}
	}

	// Block-level single pass in topological order.
	nb := len(c.Blocks)
	blockIn := make([][]Interval, nb)
	blockIn[0] = make([]Interval, comps)
	for j := range blockIn[0] {
		blockIn[0][j] = TopInterval()
	}
	reachedB := make([]bool, nb)
	reachedB[0] = true
	state := make([]Interval, comps)
	record := func(b int, final bool) {
		copy(state, blockIn[b])
		for i := c.Blocks[b].Start; i < c.Blocks[b].End; i++ {
			in := &p.Insts[i]
			la, lb, lc := in.SrcLanes()
			lanes := [3]uint8{la, lb, lc}
			srcs := [3]shader.Src{in.A, in.B, in.C}
			var op [3][4]Interval
			for k := 0; k < 3; k++ {
				for l := 0; l < 4; l++ {
					if lanes[k]&(1<<uint(l)) == 0 {
						op[k][l] = TopInterval()
						continue
					}
					op[k][l] = operandIv(state, i, k, l, srcs[k])
				}
			}
			if final && sccp.Reachable[i] {
				r.Operand[i] = op
			}
			mask := in.WriteMask()
			if mask != 0 && (in.Dst.File == shader.FileTemp || in.Dst.File == shader.FileOutput) {
				for cc := 0; cc < 4; cc++ {
					if mask&(1<<uint(cc)) == 0 {
						continue
					}
					state[compOf(in.Dst.File, in.Dst.Reg, cc)] =
						resultIv(in, op[0][cc], op[1][cc], op[2][cc])
				}
			}
		}
	}
	for _, b := range topo {
		if !reachedB[b] {
			continue
		}
		record(b, false)
		// state now holds the block's out-state; propagate along feasible
		// edges (mirroring SCCP's pruning: an edge into a block SCCP never
		// reached is infeasible).
		for _, sb := range c.Blocks[b].Succs {
			if !sccp.Reachable[c.Blocks[sb].Start] {
				continue
			}
			if !reachedB[sb] {
				reachedB[sb] = true
				blockIn[sb] = append([]Interval(nil), state...)
				continue
			}
			for j := range state {
				blockIn[sb][j] = joinInterval(blockIn[sb][j], state[j])
			}
		}
	}
	// Second sweep to record per-instruction facts under the final joins.
	for b := range c.Blocks {
		if reachedB[b] {
			record(b, true)
		}
	}
	return r
}

// CondBounded reports that the BRZ or KIL condition of instruction i is
// provably a finite, non-NaN float32 — together with the forward-only
// branch shape this is the lane engine's termination obligation (every
// lane's resume point advances monotonically through a finite program).
func (r *Ranges) CondBounded(i int) bool {
	p := r.cfg.Prog
	if i < 0 || i >= len(p.Insts) {
		return false
	}
	op := p.Insts[i].Op
	if op != shader.OpBRZ && op != shader.OpKIL {
		return false
	}
	return r.Operand[i][0][0].Bounded()
}
