package shader

import (
	"fmt"
	"math"
)

// Vec4 is one register value.
type Vec4 [4]float32

// SampleFunc fetches a texel from the texture bound to sampler slot idx at
// normalised coordinates (u, v). The GLES layer supplies it.
type SampleFunc func(samplerIdx int, u, v float32) Vec4

// TexFunc fetches a texel from one specific texture at normalised (u, v):
// the per-slot specialized form of SampleFunc. The GLES layer resolves each
// bound texture's filter/wrap/completeness state once per draw and installs
// one TexFunc per sampler slot, so the per-fetch hot path skips the state
// re-checks the generic closure pays (see gles: specializeSampler).
type TexFunc func(u, v float32) Vec4

// Env is the execution environment of one shader invocation. Reuse one Env
// across invocations to avoid allocations: call Reset between programs.
type Env struct {
	Uniforms []Vec4
	Inputs   []Vec4
	Outputs  []Vec4
	Temps    []Vec4
	Sample   SampleFunc
	// Samplers, when it covers a fetch's sampler slot with a non-nil entry,
	// takes precedence over Sample at that fetch site. Entries must be
	// bit-identical to what Sample would return for the same slot.
	Samplers []TexFunc

	// Discarded is set when the invocation executed a KIL.
	Discarded bool
	// Cycles accumulates the cost of executed instructions.
	Cycles int64
	// TexFetches counts executed texture fetches (for bandwidth models).
	TexFetches int64

	// consts is installed by Run from the executing program.
	consts [][4]float32

	// prog is the program this Env was sized for; Reset consults its
	// liveness flag to skip redundant temp zeroing.
	prog *Program
}

// NewEnv returns an environment sized for p.
func NewEnv(p *Program) *Env {
	return &Env{
		Uniforms: make([]Vec4, maxi(p.NumUniform, 1)),
		Inputs:   make([]Vec4, maxi(p.NumInputs, 1)),
		Outputs:  make([]Vec4, maxi(p.NumOutputs, 1)),
		Temps:    make([]Vec4, maxi(p.NumTemps, 1)),
		prog:     p,
	}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// debugClearTemps forces Reset to zero all Temps even for programs proven
// to write each temp before reading it. Tests set it to exercise the
// exhaustive zeroing.
var debugClearTemps bool

// Reset prepares the Env for another invocation of the same program.
// Outputs are read externally (gl_Position, varyings, gl_FragColor) even
// when the program does not write them, so they are zeroed — unless the
// compiler proved every output component is written on every
// non-discarding exit (OutputsAlwaysWritten; discarded invocations'
// outputs are never read). Temps are only zeroed when the program could
// observe stale values, i.e. when the compiler could not prove every temp
// is written before read. debugClearTemps disables both liveness-based
// skips.
func (e *Env) Reset() {
	e.Discarded = false
	proofs := e.prog != nil && !debugClearTemps
	if !(proofs && e.prog.OutputsAlwaysWritten) {
		for i := range e.Outputs {
			e.Outputs[i] = Vec4{}
		}
	}
	if proofs && e.prog.WritesBeforeReads {
		return
	}
	for i := range e.Temps {
		e.Temps[i] = Vec4{}
	}
}

// ErrVM wraps runtime execution failures (bad register indices, runaway
// branches); these indicate compiler bugs, not shader-author errors.
type ErrVM struct {
	PC  int
	Msg string
}

func (e *ErrVM) Error() string { return fmt.Sprintf("shader vm: pc %d: %s", e.PC, e.Msg) }

// quant24 quantises x to 24 fractional bits, the precision of a native
// 24-bit multiplier operating on normalised fixed-point operands.
func quant24(x float32) float32 {
	return float32(math.Trunc(float64(x)*(1<<24))) / (1 << 24)
}

// maxSteps caps dynamic execution per invocation; generated programs are
// unrolled so this is only a runaway-branch backstop.
const maxSteps = 1 << 22

// Run executes p in env, accounting cycles by InstCost. The env must have
// been created by NewEnv(p) (or have at least as many registers).
func Run(p *Program, env *Env) error {
	insts := p.Insts
	env.consts = p.Consts
	steps := 0
	for pc := 0; pc < len(insts); pc++ {
		steps++
		if steps > maxSteps {
			return &ErrVM{PC: pc, Msg: "instruction budget exceeded (runaway branch?)"}
		}
		in := &insts[pc]
		env.Cycles += InstCost(in)
		switch in.Op {
		case OpNOP:
		case OpRET:
			return nil
		case OpBR:
			pc = int(in.Target) - 1
		case OpBRZ:
			if env.read1(in.A) == 0 {
				pc = int(in.Target) - 1
			}
		case OpKIL:
			if env.read1(in.A) != 0 {
				env.Discarded = true
				return nil
			}
		case OpTEX:
			env.TexFetches++
			a := env.read(in.A)
			var texel Vec4
			if si := int(in.SamplerIdx); si >= 0 && si < len(env.Samplers) && env.Samplers[si] != nil {
				texel = env.Samplers[si](a[0], a[1])
			} else if env.Sample != nil {
				texel = env.Sample(int(in.SamplerIdx), a[0], a[1])
			}
			env.write(in.Dst, texel)
		case OpMOV:
			env.write(in.Dst, env.read(in.A))
		case OpQUANT:
			a := env.read(in.A)
			env.write(in.Dst, Vec4{
				QuantizeChannel(a[0]), QuantizeChannel(a[1]),
				QuantizeChannel(a[2]), QuantizeChannel(a[3]),
			})
		case OpDP2, OpDP3, OpDP4:
			a, b := env.read(in.A), env.read(in.B)
			n := 2 + int(in.Op) - int(OpDP2)
			var s float32
			for i := 0; i < n; i++ {
				s += a[i] * b[i]
			}
			env.write(in.Dst, Vec4{s, s, s, s})
		case OpMAD:
			a, b, c := env.read(in.A), env.read(in.B), env.read(in.C)
			env.write(in.Dst, Vec4{
				a[0]*b[0] + c[0], a[1]*b[1] + c[1],
				a[2]*b[2] + c[2], a[3]*b[3] + c[3],
			})
		case OpMUL24:
			a, b := env.read(in.A), env.read(in.B)
			var r Vec4
			for i := 0; i < 4; i++ {
				r[i] = quant24(a[i]) * quant24(b[i])
			}
			env.write(in.Dst, r)
		case OpCLAMP:
			a, lo, hi := env.read(in.A), env.read(in.B), env.read(in.C)
			var r Vec4
			for i := 0; i < 4; i++ {
				v := a[i]
				if v < lo[i] {
					v = lo[i]
				}
				if v > hi[i] {
					v = hi[i]
				}
				r[i] = v
			}
			env.write(in.Dst, r)
		case OpSEL:
			a, b, c := env.read(in.A), env.read(in.B), env.read(in.C)
			var r Vec4
			for i := 0; i < 4; i++ {
				if a[i] != 0 {
					r[i] = b[i]
				} else {
					r[i] = c[i]
				}
			}
			env.write(in.Dst, r)
		default:
			if err := env.alu(in); err != nil {
				return &ErrVM{PC: pc, Msg: err.Error()}
			}
		}
	}
	return nil
}

// EvalInst executes one data instruction on explicit operand values using
// the reference interpreter and returns the (pre-mask) result vector. The
// operands a, b, c are the base register values the instruction's A, B, C
// sources read from; swizzles and negation are applied exactly as at
// runtime. Control flow, KIL and TEX are not evaluable and report ok ==
// false. Constant propagation in the analysis package goes through this:
// the folded value is bit-exact by construction because it is computed by
// the same VM that would compute it at runtime.
func EvalInst(in Inst, a, b, c Vec4) (Vec4, bool) {
	switch in.Op {
	case OpNOP, OpRET, OpBR, OpBRZ, OpKIL, OpTEX:
		return Vec4{}, false
	case opMax:
		return Vec4{}, false
	}
	inst := in
	inst.A.File, inst.A.Reg = FileTemp, 0
	inst.B.File, inst.B.Reg = FileTemp, 1
	inst.C.File, inst.C.Reg = FileTemp, 2
	inst.Dst = Dst{File: FileTemp, Reg: 3, Mask: MaskAll}
	p := Program{Insts: []Inst{inst}, NumTemps: 4}
	env := Env{Temps: []Vec4{a, b, c, {}}}
	if err := Run(&p, &env); err != nil {
		return Vec4{}, false
	}
	return env.Temps[3], true
}

// read fetches a source operand with swizzle and negation applied.
func (e *Env) read(s Src) Vec4 {
	var base Vec4
	switch s.File {
	case FileTemp:
		base = e.Temps[s.Reg]
	case FileUniform:
		base = e.Uniforms[s.Reg]
	case FileInput:
		base = e.Inputs[s.Reg]
	case FileOutput:
		base = e.Outputs[s.Reg]
	case FileConst:
		base = constAt(e, s.Reg)
	}
	r := Vec4{base[s.Swiz[0]&3], base[s.Swiz[1]&3], base[s.Swiz[2]&3], base[s.Swiz[3]&3]}
	if s.Neg {
		r[0], r[1], r[2], r[3] = -r[0], -r[1], -r[2], -r[3]
	}
	return r
}

// consts is bound per Run via a tiny closure-free trick: the Env keeps a
// reference installed by Bind.
func constAt(e *Env, reg uint16) Vec4 {
	if int(reg) < len(e.consts) {
		return Vec4(e.consts[reg])
	}
	return Vec4{}
}

func (e *Env) read1(s Src) float32 { return e.read(s)[0] }

func (e *Env) write(d Dst, v Vec4) {
	var slot *Vec4
	switch d.File {
	case FileTemp:
		slot = &e.Temps[d.Reg]
	case FileOutput:
		slot = &e.Outputs[d.Reg]
	default:
		return // writes to read-only files are compiler bugs; ignore safely
	}
	if d.Mask&1 != 0 {
		slot[0] = v[0]
	}
	if d.Mask&2 != 0 {
		slot[1] = v[1]
	}
	if d.Mask&4 != 0 {
		slot[2] = v[2]
	}
	if d.Mask&8 != 0 {
		slot[3] = v[3]
	}
}

// alu executes the remaining componentwise operations.
func (e *Env) alu(in *Inst) error {
	a := e.read(in.A)
	var b Vec4
	switch in.Op {
	case OpADD, OpSUB, OpMUL, OpDIV, OpMIN, OpMAX, OpPOW, OpATAN2,
		OpSLT, OpSLE, OpSGT, OpSGE, OpSEQ, OpSNE:
		b = e.read(in.B)
	}
	var r Vec4
	for i := 0; i < 4; i++ {
		x, y := float64(a[i]), float64(b[i])
		var v float64
		switch in.Op {
		case OpADD:
			v = x + y
		case OpSUB:
			v = x - y
		case OpMUL:
			v = x * y
		case OpDIV:
			v = x / y
		case OpMIN:
			v = math.Min(x, y)
		case OpMAX:
			v = math.Max(x, y)
		case OpABS:
			v = math.Abs(x)
		case OpSGN:
			if x > 0 {
				v = 1
			} else if x < 0 {
				v = -1
			}
		case OpFLR:
			v = math.Floor(x)
		case OpCEIL:
			v = math.Ceil(x)
		case OpFRC:
			v = x - math.Floor(x)
		case OpRCP:
			v = 1 / x
		case OpRSQ:
			v = 1 / math.Sqrt(x)
		case OpSQRT:
			v = math.Sqrt(x)
		case OpEX2:
			v = math.Exp2(x)
		case OpLG2:
			v = math.Log2(x)
		case OpPOW:
			v = math.Pow(x, y)
		case OpEXP:
			v = math.Exp(x)
		case OpLOG:
			v = math.Log(x)
		case OpSIN:
			v = math.Sin(x)
		case OpCOS:
			v = math.Cos(x)
		case OpTAN:
			v = math.Tan(x)
		case OpASIN:
			v = math.Asin(x)
		case OpACOS:
			v = math.Acos(x)
		case OpATAN:
			v = math.Atan(x)
		case OpATAN2:
			v = math.Atan2(x, y)
		case OpSLT:
			if x < y {
				v = 1
			}
		case OpSLE:
			if x <= y {
				v = 1
			}
		case OpSGT:
			if x > y {
				v = 1
			}
		case OpSGE:
			if x >= y {
				v = 1
			}
		case OpSEQ:
			if x == y {
				v = 1
			}
		case OpSNE:
			if x != y {
				v = 1
			}
		default:
			return fmt.Errorf("unimplemented opcode %s", in.Op)
		}
		r[i] = float32(v)
	}
	e.write(in.Dst, r)
	return nil
}
