// Package shader is the back end of the GLSL compiler: it lowers the typed
// AST produced by internal/glsl into a register-based intermediate
// representation modelled on embedded GPU shader ISAs (VideoCore IV QPUs,
// PowerVR USSE), enforces per-device implementation limits, and provides an
// interpreter ("the shader cores") that executes the IR functionally while
// accounting cycles for the timing model.
//
// Design points that matter for the reproduced paper:
//
//   - Loops are fully unrolled (GLSL ES 1.00 Appendix A semantics), so the
//     instruction count and texture-access count grow with the sgemm block
//     size — exceeding MaxInstructions/MaxTexInstructions at large blocks
//     reproduces the paper's compile failures above block size 16.
//   - a*b+c is fused into a single MAD, and builtins like dot and clamp map
//     to single instructions, so the paper's kernel-code optimisations are
//     visible as cycle-count differences.
//   - mul24 (the GL_EXT_mul24 builtin) quantises its operands to 24
//     fractional bits and costs less than a full-precision MUL.
package shader

import (
	"fmt"
	"strings"

	"gles2gpgpu/internal/glsl"
)

// Op is an IR opcode.
type Op uint8

// Opcodes. Componentwise ALU ops honour the destination write mask;
// DP2/DP3/DP4 reduce and broadcast; control flow uses absolute instruction
// indices.
const (
	OpNOP Op = iota
	OpMOV
	OpADD
	OpSUB
	OpMUL
	OpDIV
	OpMAD   // dst = a*b + c
	OpMUL24 // dst = a*b with operands quantised to 24 fractional bits
	OpDP2
	OpDP3
	OpDP4
	OpMIN
	OpMAX
	OpCLAMP // dst = min(max(a,b),c) — single saturate-style instruction
	OpABS
	OpSGN
	OpFLR
	OpCEIL
	OpFRC
	OpRCP
	OpRSQ
	OpSQRT
	OpEX2
	OpLG2
	OpPOW
	OpEXP
	OpLOG
	OpSIN
	OpCOS
	OpTAN
	OpASIN
	OpACOS
	OpATAN
	OpATAN2
	OpSLT // set 1.0 if a < b else 0.0
	OpSLE
	OpSGT
	OpSGE
	OpSEQ
	OpSNE
	OpSEL   // dst = a != 0 ? b : c (componentwise)
	OpQUANT // dst = decode(encode(a)): RGBA8 texel round trip, componentwise
	OpTEX   // dst = sample(sampler[SamplerIdx], a.xy)
	OpKIL   // discard fragment if a.x != 0
	OpBR    // unconditional branch to Target
	OpBRZ   // branch to Target if a.x == 0
	OpRET   // end shader / end of inlined body
	opMax
)

var opNames = [opMax]string{
	OpNOP: "nop", OpMOV: "mov", OpADD: "add", OpSUB: "sub", OpMUL: "mul",
	OpDIV: "div", OpMAD: "mad", OpMUL24: "mul24",
	OpDP2: "dp2", OpDP3: "dp3", OpDP4: "dp4",
	OpMIN: "min", OpMAX: "max", OpCLAMP: "clamp",
	OpABS: "abs", OpSGN: "sgn", OpFLR: "flr", OpCEIL: "ceil", OpFRC: "frc",
	OpRCP: "rcp", OpRSQ: "rsq", OpSQRT: "sqrt",
	OpEX2: "ex2", OpLG2: "lg2", OpPOW: "pow", OpEXP: "exp", OpLOG: "log",
	OpSIN: "sin", OpCOS: "cos", OpTAN: "tan",
	OpASIN: "asin", OpACOS: "acos", OpATAN: "atan", OpATAN2: "atan2",
	OpSLT: "slt", OpSLE: "sle", OpSGT: "sgt", OpSGE: "sge",
	OpSEQ: "seq", OpSNE: "sne", OpSEL: "sel", OpQUANT: "quant",
	OpTEX: "tex", OpKIL: "kil", OpBR: "br", OpBRZ: "brz", OpRET: "ret",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", int(o))
}

// RegFile selects a register bank.
type RegFile uint8

// Register banks.
const (
	FileTemp    RegFile = iota // read-write temporaries
	FileUniform                // constant across a draw, set by the API
	FileInput                  // varyings/attributes + gl_FragCoord
	FileOutput                 // gl_FragColor / gl_Position + varyings out
	FileConst                  // compile-time constant pool
)

var fileNames = map[RegFile]string{
	FileTemp: "r", FileUniform: "u", FileInput: "i", FileOutput: "o", FileConst: "c",
}

// Src is a source operand: a register with a component swizzle and optional
// negation (free on real hardware, free here too).
type Src struct {
	File RegFile
	Reg  uint16
	Swiz [4]uint8 // component selection, values 0..3
	Neg  bool
}

// IdentitySwiz is the no-op swizzle.
var IdentitySwiz = [4]uint8{0, 1, 2, 3}

// SrcReg returns a plain source operand with identity swizzle.
func SrcReg(f RegFile, r int) Src {
	return Src{File: f, Reg: uint16(r), Swiz: IdentitySwiz}
}

func (s Src) String() string {
	str := fmt.Sprintf("%s%d", fileNames[s.File], s.Reg)
	if s.Swiz != IdentitySwiz {
		comps := "xyzw"
		str += "."
		for _, c := range s.Swiz {
			str += string(comps[c&3])
		}
	}
	if s.Neg {
		str = "-" + str
	}
	return str
}

// Dst is a destination operand: a temp or output register plus a component
// write mask (bit i enables component i).
type Dst struct {
	File RegFile
	Reg  uint16
	Mask uint8
}

// MaskAll writes all four components.
const MaskAll uint8 = 0xF

// DstReg returns a destination covering n leading components.
func DstReg(f RegFile, r, n int) Dst {
	return Dst{File: f, Reg: uint16(r), Mask: maskN(n)}
}

func maskN(n int) uint8 {
	if n >= 4 {
		return 0xF
	}
	return uint8(1<<uint(n)) - 1
}

func (d Dst) String() string {
	str := fmt.Sprintf("%s%d", fileNames[d.File], d.Reg)
	if d.Mask != MaskAll {
		comps := "xyzw"
		str += "."
		for i := 0; i < 4; i++ {
			if d.Mask&(1<<uint(i)) != 0 {
				str += string(comps[i])
			}
		}
	}
	return str
}

// Inst is one IR instruction.
type Inst struct {
	Op         Op
	Dst        Dst
	A, B, C    Src
	SamplerIdx uint8 // for OpTEX: index into Program.Samplers
	Target     int32 // for OpBR/OpBRZ: absolute instruction index
	// SrcPos is the GLSL source position the instruction was lowered
	// from (zero when synthesised without one), so analysis diagnostics
	// can point at source lines.
	SrcPos glsl.Pos
}

// SrcLanes reports which post-swizzle lanes of each source operand
// influence the instruction's result: componentwise ops consume the lanes
// the destination mask keeps, reductions and special forms consume fixed
// lanes, and operands an opcode does not read report zero. This is the
// single definition of "what counts as a read" shared by the liveness
// proof, the dataflow analyses and the lint diagnostics.
func (in *Inst) SrcLanes() (a, b, c uint8) {
	switch in.Op {
	case OpNOP, OpRET, OpBR:
		return 0, 0, 0
	case OpKIL, OpBRZ:
		return 1, 0, 0 // read1: lane x only
	case OpTEX:
		return 0b0011, 0, 0 // (u, v)
	case OpDP2:
		return 0b0011, 0b0011, 0
	case OpDP3:
		return 0b0111, 0b0111, 0
	case OpDP4:
		return 0b1111, 0b1111, 0
	case OpADD, OpSUB, OpMUL, OpDIV, OpMIN, OpMAX, OpPOW, OpATAN2,
		OpSLT, OpSLE, OpSGT, OpSGE, OpSEQ, OpSNE, OpMUL24:
		return in.Dst.Mask, in.Dst.Mask, 0
	case OpMAD, OpCLAMP, OpSEL:
		return in.Dst.Mask, in.Dst.Mask, in.Dst.Mask
	default: // unary componentwise, incl. MOV
		return in.Dst.Mask, 0, 0
	}
}

// WriteMask reports which destination components the instruction writes
// (zero for control flow and KIL, which have no destination).
func (in *Inst) WriteMask() uint8 {
	switch in.Op {
	case OpNOP, OpRET, OpBR, OpBRZ, OpKIL:
		return 0
	}
	return in.Dst.Mask
}

func (in Inst) String() string {
	switch in.Op {
	case OpNOP, OpRET:
		return in.Op.String()
	case OpBR:
		return fmt.Sprintf("br %d", in.Target)
	case OpBRZ:
		return fmt.Sprintf("brz %s, %d", in.A, in.Target)
	case OpKIL:
		return fmt.Sprintf("kil %s", in.A)
	case OpTEX:
		return fmt.Sprintf("tex %s, %s, s%d", in.Dst, in.A, in.SamplerIdx)
	case OpMOV, OpABS, OpSGN, OpFLR, OpCEIL, OpFRC, OpRCP, OpRSQ, OpSQRT,
		OpEX2, OpLG2, OpEXP, OpLOG, OpSIN, OpCOS, OpTAN, OpASIN, OpACOS, OpATAN,
		OpQUANT:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Dst, in.A)
	case OpMAD, OpCLAMP, OpSEL:
		return fmt.Sprintf("%s %s, %s, %s, %s", in.Op, in.Dst, in.A, in.B, in.C)
	default:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Dst, in.A, in.B)
	}
}

// UniformInfo describes one uniform in the program's interface.
type UniformInfo struct {
	Name string
	Type glsl.Type
	// Reg is the first uniform register; Regs is the count (arrays and
	// matrices span several).
	Reg  int
	Regs int
	// SamplerIdx is the index into Program.Samplers for sampler uniforms,
	// -1 otherwise.
	SamplerIdx int
}

// VarInfo describes one input or output varying/attribute.
type VarInfo struct {
	Name       string
	Type       glsl.Type
	Reg        int
	Components int
}

// Program is a compiled shader, immutable after Compile: any number of
// engines and goroutines may share one.
type Program struct {
	Stage  glsl.ShaderStage
	Source string // original GLSL, retained for diagnostics

	Insts  []Inst
	Consts [][4]float32

	NumTemps   int
	NumInputs  int
	NumOutputs int
	NumUniform int

	Uniforms []UniformInfo
	Inputs   []VarInfo
	Outputs  []VarInfo
	// Samplers[i] is the uniform name bound to texture-sampler slot i.
	Samplers []string

	// Static statistics (after unrolling), used for limit checks and the
	// timing model.
	TexInstructions int
	UsesDiscard     bool

	// WritesBeforeReads records that every read of a temp or output
	// register component is preceded by a write within the same invocation
	// (see liveness.go). When true, an invocation can never observe state
	// left by a previous one: Env.Reset may skip zeroing Temps, and the
	// host-parallel fragment engine may shade with per-worker Envs while
	// staying bit-identical to serial execution.
	WritesBeforeReads bool

	// OutputsAlwaysWritten records that every component of every output
	// register is definitely written on every non-discarding path to
	// program exit. The GLES layer reads Outputs after Run even when the
	// program left them untouched, so serial Env reuse can leak the
	// previous fragment's colour; parallel shading requires this flag (in
	// addition to WritesBeforeReads) to rule that channel out.
	OutputsAlwaysWritten bool
}

// InstructionCount returns the static instruction count after unrolling.
func (p *Program) InstructionCount() int { return len(p.Insts) }

// InstSuccs returns the control-flow successors of instruction i:
// fall-through for ordinary instructions, branch targets for BR/BRZ,
// nothing for RET or a fall-off-the-end. KIL's discard edge leaves the
// program and is not a successor. This is the single successor function
// shared by the liveness proof and the analysis framework's CFG.
func (p *Program) InstSuccs(i int) []int {
	n := len(p.Insts)
	switch p.Insts[i].Op {
	case OpRET:
		return nil
	case OpBR:
		if t := int(p.Insts[i].Target); t >= 0 && t < n {
			return []int{t}
		}
		return nil
	case OpBRZ:
		s := []int{}
		if i+1 < n {
			s = append(s, i+1)
		}
		if t := int(p.Insts[i].Target); t >= 0 && t < n {
			s = append(s, t)
		}
		return s
	default:
		if i+1 < n {
			return []int{i + 1}
		}
		return nil
	}
}

// LookupUniform finds a uniform by name.
func (p *Program) LookupUniform(name string) (UniformInfo, bool) {
	for _, u := range p.Uniforms {
		if u.Name == name {
			return u, true
		}
	}
	return UniformInfo{}, false
}

// LookupInput finds an input (attribute/varying) by name.
func (p *Program) LookupInput(name string) (VarInfo, bool) {
	for _, v := range p.Inputs {
		if v.Name == name {
			return v, true
		}
	}
	return VarInfo{}, false
}

// LookupOutput finds an output varying by name.
func (p *Program) LookupOutput(name string) (VarInfo, bool) {
	for _, v := range p.Outputs {
		if v.Name == name {
			return v, true
		}
	}
	return VarInfo{}, false
}

// Disassemble renders the program IR as text.
func (p *Program) Disassemble() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; %s shader: %d instructions, %d tex, %d temps\n",
		p.Stage, len(p.Insts), p.TexInstructions, p.NumTemps)
	for _, u := range p.Uniforms {
		fmt.Fprintf(&sb, "; uniform %-12s %s u%d+%d\n", u.Name, u.Type, u.Reg, u.Regs)
	}
	for _, v := range p.Inputs {
		fmt.Fprintf(&sb, "; input   %-12s %s i%d\n", v.Name, v.Type, v.Reg)
	}
	for _, v := range p.Outputs {
		fmt.Fprintf(&sb, "; output  %-12s %s o%d\n", v.Name, v.Type, v.Reg)
	}
	for i, c := range p.Consts {
		fmt.Fprintf(&sb, "; const c%d = (%g, %g, %g, %g)\n", i, c[0], c[1], c[2], c[3])
	}
	for i, in := range p.Insts {
		fmt.Fprintf(&sb, "%4d: %s\n", i, in.String())
	}
	return sb.String()
}
