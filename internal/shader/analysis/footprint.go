package analysis

import (
	"fmt"
	"math"

	"gles2gpgpu/internal/shader"
)

// Sampler footprint analysis.
//
// For every sampler slot the analysis tries to prove a static description
// of the texel region the program can fetch: each TEX coordinate must be a
// chain of float32-affine steps (add/sub/mul/mad with draw-constant
// operands, negation, copies) over at most ONE input register component,
// or fully draw-constant. A draw-constant step operand is a constant-pool
// literal, a uniform register component, or any operand SCCP proved
// constant — the GLSL front end materialises folded literals through
// temps (mov rN.x, c0 …), so composing with SCCP is what makes real
// kernels provable. The chain records the exact operations the
// interpreter performs, in order, so evaluating it at a value v yields
// bit-for-bit the coordinate a fragment whose input component is v would
// pass to the sampler.
//
// The payoff is interval exactness: every step is weakly monotone in its
// chain operand under float32 rounding (adding a constant, multiplying by
// a constant, negating, and a*x+b with constant a,b all preserve weak
// ordering, because the exact results are ordered and round-to-nearest is
// monotone). The image of [lo, hi] under a monotone step is therefore
// exactly the interval between the step's values at lo and hi — no
// widening cascade, and no texel-level padding. Given bounds covering
// every emitted float32 value of the input component over a region
// (raster.VaryingRectBounds provides exactly that for a tile, absorbing
// its own interpolation rounding by widening one float32 ulp per side),
// SlotRect composes the chain endpoints with the sampler's own index
// arithmetic (the NEAREST + CLAMP_TO_EDGE fast path of
// internal/gles/sampler.go, reproduced expression by expression); the
// resulting texel rectangle is the exact image of the input bounds.
//
// Coordinates that depend on another fetch (dependent TEX), on more than
// one input component, on non-affine arithmetic, or on joins of different
// definitions are "statically unbounded" (top): the slot reports
// !Provable with the pc and reason, the unbounded-footprint lint finding
// surfaces it, and draws of the program skip the coherence cache.

// FootK is a draw-time constant chain operand: a compile-time literal or
// one uniform register component (negated when Neg).
type FootK struct {
	Uniform   bool
	Reg, Comp int
	Neg       bool
	Val       float32 // literal value when !Uniform (negation already folded)
}

// Resolve returns the operand's float32 value for a draw. ok=false when
// the value is not finite (an infinite or NaN chain constant breaks the
// monotone-step argument: an interior chain value could go NaN while the
// endpoints stay ordered).
func (k FootK) Resolve(uniforms [][4]float32) (float32, bool) {
	v := k.Val
	if k.Uniform {
		if k.Reg < 0 || k.Reg >= len(uniforms) {
			return 0, false
		}
		v = uniforms[k.Reg][k.Comp]
		if k.Neg {
			v = -v
		}
	}
	if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
		return 0, false
	}
	return v, true
}

// AffineOp is one chain step shape. Each evaluates with the same float32
// expression the interpreter uses for the originating instruction.
type AffineOp uint8

// Chain step shapes.
const (
	AffAdd  AffineOp = iota // x + k      (ADD, either operand)
	AffSub                  // x - k      (SUB, chain in A)
	AffRSub                 // k - x      (SUB, chain in B)
	AffMul                  // x * k      (MUL, either operand)
	AffMad                  // x*k + k2   (MAD, chain in A or B)
	AffMadC                 // k*k2 + x   (MAD, chain in C)
	AffNeg                  // -x         (source-operand negation)
)

// AffineStep is one applied step.
type AffineStep struct {
	Op    AffineOp
	K, K2 FootK
}

func (s AffineStep) apply(x float32, uniforms [][4]float32) (float32, bool) {
	var k, k2 float32
	var ok bool
	if s.Op != AffNeg {
		if k, ok = s.K.Resolve(uniforms); !ok {
			return 0, false
		}
	}
	if s.Op == AffMad || s.Op == AffMadC {
		if k2, ok = s.K2.Resolve(uniforms); !ok {
			return 0, false
		}
	}
	switch s.Op {
	case AffAdd:
		return x + k, true
	case AffSub:
		return x - k, true
	case AffRSub:
		return k - x, true
	case AffMul:
		return x * k, true
	case AffMad:
		return x*k + k2, true
	case AffMadC:
		return k*k2 + x, true
	default:
		return -x, true
	}
}

// TexCoord is one proven coordinate: a chain over one input component, or
// a draw-constant chain (HasInput false, base K0).
type TexCoord struct {
	Known         bool
	HasInput      bool
	InReg, InComp int
	K0            FootK // chain base when !HasInput
	Steps         []AffineStep
}

// TexCoordPair is the (u, v) description of one TEX instruction.
type TexCoordPair struct {
	Pc   int
	U, V TexCoord
}

// SlotFootprint is the per-sampler-slot verdict.
type SlotFootprint struct {
	// Provable is set when every reachable TEX on the slot has both
	// coordinates proven; Coords then holds one pair per TEX.
	Provable bool
	Coords   []TexCoordPair
	// Pc and Reason identify the first fetch that defeated the proof.
	Pc     int
	Reason string
}

// Footprint holds the per-slot results, indexed by sampler slot.
type Footprint struct {
	Slots []SlotFootprint
}

// maxChainSteps bounds coordinate chases (a cycle through temps via
// DefMany is already rejected, but pathological straight-line chains
// should not recurse without bound either).
const maxChainSteps = 64

// SolveFootprint runs the analysis over c using solved def-use chains and
// SCCP constants and reachability.
func SolveFootprint(c *CFG, du *DefUse, sccp *SCCP) *Footprint {
	p := c.Prog
	f := &Footprint{Slots: make([]SlotFootprint, len(p.Samplers))}
	for si := range f.Slots {
		f.Slots[si].Provable = true
		f.Slots[si].Pc = -1
	}
	if len(f.Slots) == 0 {
		return f
	}
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.Op != shader.OpTEX || !sccp.Reachable[i] {
			continue
		}
		si := int(in.SamplerIdx)
		if si >= len(f.Slots) {
			continue
		}
		slot := &f.Slots[si]
		if !slot.Provable {
			continue
		}
		u, ru := chaseCoord(p, du, sccp, i, 0, 0)
		v, rv := chaseCoord(p, du, sccp, i, 0, 1)
		if !u.Known || !v.Known {
			reason := ru
			if u.Known {
				reason = rv
			}
			*slot = SlotFootprint{Pc: i, Reason: reason}
			continue
		}
		slot.Coords = append(slot.Coords, TexCoordPair{Pc: i, U: u, V: v})
	}
	return f
}

// constOperand resolves lane l of operand k of instruction i as a
// draw-time constant, with the source swizzle and negation folded in: an
// SCCP-proven constant (SCCP values are post-swizzle and post-negation),
// a constant-pool literal, or a uniform register component.
func constOperand(p *shader.Program, sccp *SCCP, i, k, l int) (FootK, bool) {
	if oc := sccp.Operand[i][k]; oc.OK {
		return FootK{Val: oc.V[l]}, true
	}
	in := &p.Insts[i]
	s := *srcOperand(in, k)
	cc := int(s.Swiz[l] & 3)
	switch s.File {
	case shader.FileConst:
		if int(s.Reg) >= len(p.Consts) {
			return FootK{}, false
		}
		v := p.Consts[s.Reg][cc]
		if s.Neg {
			v = -v
		}
		return FootK{Val: v}, true
	case shader.FileUniform:
		return FootK{Uniform: true, Reg: int(s.Reg), Comp: cc, Neg: s.Neg}, true
	}
	return FootK{}, false
}

// chaseCoord traces the value read in post-swizzle lane l of operand k of
// instruction i back to an affine chain over at most one input component.
// The second result is the failure reason when the chain is unknown.
func chaseCoord(p *shader.Program, du *DefUse, sccp *SCCP, i, k, l int) (TexCoord, string) {
	var tc TexCoord
	if k0, ok := constOperand(p, sccp, i, k, l); ok {
		return TexCoord{Known: true, K0: k0}, ""
	}
	in := &p.Insts[i]
	s := *srcOperand(in, k)
	cc := int(s.Swiz[l] & 3)
	switch s.File {
	case shader.FileConst, shader.FileUniform:
		return tc, "constant-pool index out of range"
	case shader.FileInput:
		tc = TexCoord{Known: true, HasInput: true, InReg: int(s.Reg), InComp: cc}
		if s.Neg {
			tc.Steps = append(tc.Steps, AffineStep{Op: AffNeg})
		}
		return tc, ""
	case shader.FileTemp, shader.FileOutput:
		d := du.DefOf[i][k][l]
		switch d {
		case DefMany:
			return tc, "coordinate joins different definitions"
		case DefExternal:
			return tc, "coordinate may be read before it is written"
		}
		if d < 0 {
			return tc, "coordinate has no tracked definition"
		}
		tc, reason := chaseDef(p, du, sccp, int(d), cc, 0)
		if !tc.Known {
			return tc, reason
		}
		if s.Neg {
			tc.Steps = append(tc.Steps, AffineStep{Op: AffNeg})
		}
		return tc, ""
	}
	return tc, "coordinate read from an untracked register file"
}

// chaseDef traces component cc of the value instruction d writes.
func chaseDef(p *shader.Program, du *DefUse, sccp *SCCP, d, cc, depth int) (TexCoord, string) {
	var tc TexCoord
	if depth > maxChainSteps {
		return tc, "coordinate chain too deep"
	}
	def := &p.Insts[d]
	// Componentwise ops write lane cc from their operands' lane cc; any
	// other shape (reductions, TEX, special functions) is not affine.
	chainOf := func(k int) (TexCoord, string) {
		kk := k // the chain operand; chase through it
		if k0, ok := constOperand(p, sccp, d, kk, cc); ok {
			return TexCoord{Known: true, K0: k0}, ""
		}
		src := *srcOperand(def, kk)
		switch src.File {
		case shader.FileInput:
			t := TexCoord{Known: true, HasInput: true, InReg: int(src.Reg), InComp: int(src.Swiz[cc] & 3)}
			if src.Neg {
				t.Steps = append(t.Steps, AffineStep{Op: AffNeg})
			}
			return t, ""
		case shader.FileConst, shader.FileUniform:
			return TexCoord{}, "constant-pool index out of range"
		case shader.FileTemp, shader.FileOutput:
			dd := du.DefOf[d][kk][cc]
			switch dd {
			case DefMany:
				return TexCoord{}, "coordinate joins different definitions"
			case DefExternal:
				return TexCoord{}, "coordinate may be read before it is written"
			}
			if dd < 0 {
				return TexCoord{}, "coordinate has no tracked definition"
			}
			t, reason := chaseDef(p, du, sccp, int(dd), int(src.Swiz[cc]&3), depth+1)
			if !t.Known {
				return t, reason
			}
			if src.Neg {
				t.Steps = append(t.Steps, AffineStep{Op: AffNeg})
			}
			return t, ""
		}
		return TexCoord{}, "coordinate read from an untracked register file"
	}
	switch def.Op {
	case shader.OpMOV:
		return chainOf(0)
	case shader.OpADD, shader.OpSUB, shader.OpMUL:
		ka, aOK := constOperand(p, sccp, d, 0, cc)
		kb, bOK := constOperand(p, sccp, d, 1, cc)
		switch {
		case aOK && bOK:
			// Fully draw-constant arithmetic: keep it as a chain over the
			// constant base (evaluated at draw time).
			t := TexCoord{Known: true, K0: ka}
			op := AffAdd
			if def.Op == shader.OpSUB {
				op = AffSub
			} else if def.Op == shader.OpMUL {
				op = AffMul
			}
			t.Steps = append(t.Steps, AffineStep{Op: op, K: kb})
			return t, ""
		case bOK: // chain in A
			t, reason := chainOf(0)
			if !t.Known {
				return t, reason
			}
			op := AffAdd
			if def.Op == shader.OpSUB {
				op = AffSub
			} else if def.Op == shader.OpMUL {
				op = AffMul
			}
			t.Steps = append(t.Steps, AffineStep{Op: op, K: kb})
			return t, ""
		case aOK: // chain in B
			t, reason := chainOf(1)
			if !t.Known {
				return t, reason
			}
			op := AffAdd // a + x == x + a bit-for-bit (float32 + commutes)
			if def.Op == shader.OpSUB {
				op = AffRSub
			} else if def.Op == shader.OpMUL {
				op = AffMul // a * x == x * a bit-for-bit
			}
			t.Steps = append(t.Steps, AffineStep{Op: op, K: ka})
			return t, ""
		}
		return tc, fmt.Sprintf("both operands of %s vary", def.Op)
	case shader.OpMAD: // a*b + c
		ka, aOK := constOperand(p, sccp, d, 0, cc)
		kb, bOK := constOperand(p, sccp, d, 1, cc)
		kc, cOK := constOperand(p, sccp, d, 2, cc)
		switch {
		case bOK && cOK: // x*kb + kc
			t, reason := chainOf(0)
			if !t.Known {
				return t, reason
			}
			t.Steps = append(t.Steps, AffineStep{Op: AffMad, K: kb, K2: kc})
			return t, ""
		case aOK && cOK: // ka*x + kc == x*ka + kc bit-for-bit
			t, reason := chainOf(1)
			if !t.Known {
				return t, reason
			}
			t.Steps = append(t.Steps, AffineStep{Op: AffMad, K: ka, K2: kc})
			return t, ""
		case aOK && bOK: // ka*kb + x
			t, reason := chainOf(2)
			if !t.Known {
				return t, reason
			}
			t.Steps = append(t.Steps, AffineStep{Op: AffMadC, K: ka, K2: kb})
			return t, ""
		}
		return tc, "MAD feeding the coordinate has two varying operands"
	case shader.OpTEX:
		return tc, "coordinate depends on another texture fetch"
	}
	return tc, fmt.Sprintf("non-affine %s feeds the coordinate", def.Op)
}

// TexRect is an inclusive texel rectangle.
type TexRect struct {
	X0, Y0, X1, Y1 int
}

// evalCoord evaluates one coordinate chain over [lo, hi] input bounds,
// returning ordered float32 bounds of the coordinate.
func evalCoord(tc *TexCoord, uniforms [][4]float32, inBounds func(reg, comp int) (lo, hi float32, ok bool)) (float32, float32, bool) {
	var lo, hi float32
	if tc.HasInput {
		var ok bool
		lo, hi, ok = inBounds(tc.InReg, tc.InComp)
		if !ok || lo > hi ||
			math.IsNaN(float64(lo)) || math.IsInf(float64(lo), 0) ||
			math.IsNaN(float64(hi)) || math.IsInf(float64(hi), 0) {
			return 0, 0, false
		}
	} else {
		v, ok := tc.K0.Resolve(uniforms)
		if !ok {
			return 0, 0, false
		}
		lo, hi = v, v
	}
	for _, st := range tc.Steps {
		a, ok := st.apply(lo, uniforms)
		if !ok {
			return 0, 0, false
		}
		b, ok := st.apply(hi, uniforms)
		if !ok {
			return 0, 0, false
		}
		if a > b {
			a, b = b, a
		}
		// Finite inputs and finite step constants cannot produce NaN
		// (no inf-inf or 0*inf is constructible), but an overflow to an
		// infinity loses the endpoint ordering guarantee for later steps.
		if math.IsNaN(float64(a)) || math.IsInf(float64(a), 0) ||
			math.IsNaN(float64(b)) || math.IsInf(float64(b), 0) {
			return 0, 0, false
		}
		lo, hi = a, b
	}
	return lo, hi, true
}

// texIndex reproduces the NEAREST + CLAMP_TO_EDGE index arithmetic of the
// sampler fast path (internal/gles/sampler.go) for one axis.
func texIndex(u float32, fw float32, w int) int {
	if u < 0 {
		u = 0
	} else if u > 1 {
		u = 1
	}
	ix := int(u * fw)
	if ix < 0 {
		ix = 0
	} else if ix >= w {
		ix = w - 1
	}
	return ix
}

// SlotRect evaluates slot si's proven footprint for one draw region:
// uniforms are the draw's fragment uniform registers, inBounds bounds
// each referenced input component over the region — it must cover every
// emitted float32 value, which raster.VaryingRectBounds guarantees for a
// tile — and texW/texH are the bound texture's dimensions. The result is
// the inclusive texel rectangle all fetches from the slot within the
// region provably fall in. Because chain steps and the index arithmetic
// are weakly monotone, the rectangle is the exact image of the input
// bounds — no padding. It applies only to samplers using the NEAREST +
// CLAMP_TO_EDGE configuration (the caller gates on that). ok=false when
// the slot is unproven, fetches nothing, or an evaluation hits a
// non-finite value.
func (f *Footprint) SlotRect(si int, uniforms [][4]float32, inBounds func(reg, comp int) (lo, hi float32, ok bool), texW, texH int) (TexRect, bool) {
	if si < 0 || si >= len(f.Slots) || !f.Slots[si].Provable || len(f.Slots[si].Coords) == 0 {
		return TexRect{}, false
	}
	if texW <= 0 || texH <= 0 {
		return TexRect{}, false
	}
	fw, fh := float32(texW), float32(texH)
	r := TexRect{X0: texW, Y0: texH, X1: -1, Y1: -1}
	for ci := range f.Slots[si].Coords {
		pair := &f.Slots[si].Coords[ci]
		ulo, uhi, ok := evalCoord(&pair.U, uniforms, inBounds)
		if !ok {
			return TexRect{}, false
		}
		vlo, vhi, ok := evalCoord(&pair.V, uniforms, inBounds)
		if !ok {
			return TexRect{}, false
		}
		x0, x1 := texIndex(ulo, fw, texW), texIndex(uhi, fw, texW)
		y0, y1 := texIndex(vlo, fh, texH), texIndex(vhi, fh, texH)
		if x0 < r.X0 {
			r.X0 = x0
		}
		if y0 < r.Y0 {
			r.Y0 = y0
		}
		if x1 > r.X1 {
			r.X1 = x1
		}
		if y1 > r.Y1 {
			r.Y1 = y1
		}
	}
	return r, true
}

// srcOperand returns a pointer to operand k (0=A, 1=B, 2=C) of in.
func srcOperand(in *shader.Inst, k int) *shader.Src {
	switch k {
	case 0:
		return &in.A
	case 1:
		return &in.B
	default:
		return &in.C
	}
}
