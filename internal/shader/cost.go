package shader

// cycles is the cycle cost of each IR opcode. Instruction cost belongs to
// the ISA model, not to a device: the paper's two GPUs differ in clock,
// fragment parallelism, tiling and driver costs (device.Profile), never in
// what one instruction costs relative to another.
//
// The relative costs encode the micro-architectural facts the paper's
// kernel-code optimisations exploit:
//
//   - MAD costs the same as MUL: expressing a*b+c as one MAD halves the
//     ALU work of separate MUL+ADD.
//   - DPn and CLAMP are single instructions (the paper: "many vendors
//     directly implement those functionalities in hardware").
//   - MUL24 is cheaper than a full-precision MUL (VideoCore IV's QPU
//     multiplier is natively 24-bit; fp32 emulation costs extra).
//   - Transcendentals run on a special-function unit and cost several
//     cycles.
//   - TEX is the cost of issuing a texture fetch, excluding memory latency
//     (which the pipeline model accounts as bandwidth).
var cycles = func() (t [opMax]int64) {
	for op := range t {
		t[op] = 1
	}
	t[OpNOP] = 0
	t[OpRET] = 0
	t[OpMUL] = 2   // full fp32 multiply on a 24-bit multiplier array
	t[OpMAD] = 2   // fused: same cost as the multiply alone
	t[OpMUL24] = 1 // native 24-bit multiply
	t[OpDIV] = 8
	t[OpRCP] = 6
	t[OpRSQ] = 6
	t[OpSQRT] = 8
	t[OpEX2] = 6
	t[OpLG2] = 6
	t[OpEXP] = 8
	t[OpLOG] = 8
	t[OpPOW] = 12
	t[OpSIN] = 8
	t[OpCOS] = 8
	t[OpTAN] = 16
	t[OpASIN] = 16
	t[OpACOS] = 16
	t[OpATAN] = 16
	t[OpATAN2] = 20
	t[OpTEX] = 4
	return t
}()

// InstCost returns the cycle cost of one instruction.
func InstCost(in *Inst) int64 { return cycles[in.Op] }

// StaticCycles estimates the per-invocation cycle cost of p by summing
// instruction costs, assuming straight-line execution (branches counted
// once). For the fully-unrolled kernels this repository generates, the
// estimate is exact; the VM additionally reports measured cycles for
// programs with control flow.
func (p *Program) StaticCycles() int64 {
	var total int64
	for i := range p.Insts {
		total += InstCost(&p.Insts[i])
	}
	return total
}

// Limits are the implementation-defined maxima a device imposes on compiled
// shaders, mirroring the GLSL ES "implementation limits" whose exceedance
// the paper reports for block sizes above 16 (§V-B: "crashes and shader
// compilation failures ... due to exceeding GLSL implementation limits,
// such as the maximum number of instructions or the maximum number of
// texture accesses").
type Limits struct {
	MaxInstructions    int // total static instructions after unrolling
	MaxTexInstructions int // static texture fetches after unrolling
	MaxTemps           int
	MaxUniformVectors  int
	MaxVaryingVectors  int
	MaxAttributes      int
	// MaxDependentTexReads bounds the dependent-texture-read chain depth
	// (a fetch whose coordinates derive from a previous fetch's result).
	// TBDR drivers schedule fetches ahead of the ALU program; chains defeat
	// that and deep ones fail compilation. Zero means unlimited. Checked by
	// internal/shader/analysis (depth needs dataflow, not a counter).
	MaxDependentTexReads int
}

// DefaultLimits returns permissive limits for tests.
func DefaultLimits() Limits {
	return Limits{
		MaxInstructions:      4096,
		MaxTexInstructions:   256,
		MaxTemps:             256,
		MaxUniformVectors:    128,
		MaxVaryingVectors:    8,
		MaxAttributes:        8,
		MaxDependentTexReads: 8,
	}
}

// LimitError reports which implementation limit a shader exceeded.
type LimitError struct {
	What  string
	Used  int
	Limit int
}

func (e *LimitError) Error() string {
	return "shader exceeds implementation limit: " + e.What +
		" (used " + itoa(e.Used) + ", max " + itoa(e.Limit) + ")"
}

func itoa(v int) string {
	// Tiny helper avoiding fmt in the hot error path is unnecessary, but
	// keeps this file dependency-free.
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// CheckLimits verifies a compiled program against device limits.
func (p *Program) CheckLimits(lim Limits) error {
	if lim.MaxInstructions > 0 && len(p.Insts) > lim.MaxInstructions {
		return &LimitError{What: "instructions", Used: len(p.Insts), Limit: lim.MaxInstructions}
	}
	if lim.MaxTexInstructions > 0 && p.TexInstructions > lim.MaxTexInstructions {
		return &LimitError{What: "texture accesses", Used: p.TexInstructions, Limit: lim.MaxTexInstructions}
	}
	if lim.MaxTemps > 0 && p.NumTemps > lim.MaxTemps {
		return &LimitError{What: "temporary registers", Used: p.NumTemps, Limit: lim.MaxTemps}
	}
	if lim.MaxUniformVectors > 0 && p.NumUniform > lim.MaxUniformVectors {
		return &LimitError{What: "uniform vectors", Used: p.NumUniform, Limit: lim.MaxUniformVectors}
	}
	return nil
}
