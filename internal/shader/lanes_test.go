package shader

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Differential testing of the lane-batched (SoA) backend against the
// reference interpreter: a batch of N lanes must produce, for every lane,
// bit-identical outputs to a serial interpreter invocation with the same
// inputs, and the batch's Cycles/TexFetches deltas must equal the serial
// sums. Bitwise comparison (diffBank): sign of zero matters, all NaNs form
// one equivalence class.

// runLaneDiff executes p serially (interpreter, one fresh Env per lane)
// and as one lane batch, then compares per-lane outputs and summed
// counters. uni is broadcast to all lanes, inputs[lane] feeds lane's
// input bank. n may be less than width (partial batch).
func runLaneDiff(t *testing.T, p *Program, cost *CostModel, width, n int, uni []Vec4, inputs [][]Vec4) {
	t.Helper()
	lc := p.LaneCompiled(cost, width)
	if lc == nil {
		t.Fatalf("lane-eligible program did not compile (reason: %q):\n%s",
			LaneFallbackReason(p), p.Disassemble())
	}

	le := NewLaneEnv(p, width)
	le.Sample = diffSampler
	le.SetUniforms(uni)
	var wantOut [][]Vec4
	var wantCycles, wantTex int64
	for lane := 0; lane < n; lane++ {
		e := NewEnv(p)
		e.Sample = diffSampler
		copy(e.Uniforms, uni)
		copy(e.Inputs, inputs[lane])
		if err := Run(p, e, cost); err != nil {
			t.Fatalf("interp lane %d: %v", lane, err)
		}
		wantOut = append(wantOut, append([]Vec4(nil), e.Outputs...))
		wantCycles += e.Cycles
		wantTex += e.TexFetches
		for reg, v := range inputs[lane] {
			le.SetInput(lane, reg, v)
		}
	}

	le.N = n
	lc.Run(le)
	if le.Cycles != wantCycles {
		t.Fatalf("Cycles divergence: serial %d, lanes %d (w=%d n=%d)\n%s",
			wantCycles, le.Cycles, width, n, p.Disassemble())
	}
	if le.TexFetches != wantTex {
		t.Fatalf("TexFetches divergence: serial %d, lanes %d (w=%d n=%d)\n%s",
			wantTex, le.TexFetches, width, n, p.Disassemble())
	}
	for lane := 0; lane < n; lane++ {
		for reg := range wantOut[lane] {
			got := le.Output(lane, reg)
			want := wantOut[lane][reg]
			for c := 0; c < 4; c++ {
				if want[c] != want[c] && got[c] != got[c] {
					continue // both NaN: equivalent
				}
				if math.Float32bits(want[c]) != math.Float32bits(got[c]) {
					t.Fatalf("lane %d output %d.%d divergence: serial %g (%#08x), lanes %g (%#08x) (w=%d n=%d)\n%s",
						lane, reg, c, want[c], math.Float32bits(want[c]),
						got[c], math.Float32bits(got[c]), width, n, p.Disassemble())
				}
			}
		}
	}
}

// fuzzInputs builds per-lane input banks from the shared fuzz value
// distribution (±0, infinities, integers, fractions).
func fuzzInputs(rng *rand.Rand, p *Program, n int) (uni []Vec4, inputs [][]Vec4) {
	uni = make([]Vec4, maxi(p.NumUniform, 1))
	for i := range uni {
		uni[i] = Vec4{fuzzValue(rng), fuzzValue(rng), fuzzValue(rng), fuzzValue(rng)}
	}
	for lane := 0; lane < n; lane++ {
		in := make([]Vec4, maxi(p.NumInputs, 1))
		for i := range in {
			in[i] = Vec4{fuzzValue(rng), fuzzValue(rng), fuzzValue(rng), fuzzValue(rng)}
		}
		inputs = append(inputs, in)
	}
	return uni, inputs
}

// TestDifferentialLaneFuzz drives 320 quick-generated seeds through
// randomized straight-line IR programs (the full ALU + TEX opcode set,
// random swizzles/negation/write masks, const-pool and out-of-range const
// reads) at random widths with random live-lane counts, including partial
// batches. Every lane must match a serial interpreter run bitwise.
func TestDifferentialLaneFuzz(t *testing.T) {
	cost := DefaultCostModel()
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProgram(rng, false) // straight-line only: lane-eligible
		width := 2 + rng.Intn(MaxLaneWidth-1)
		for probe := 0; probe < 2; probe++ {
			n := 1 + rng.Intn(width)
			uni, inputs := fuzzInputs(rng, p, n)
			runLaneDiff(t, p, &cost, width, n, uni, inputs)
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 320,
		Rand:     rand.New(rand.NewSource(20260808)),
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialLaneKernelSuite runs every generated kernel through the
// lane engine at the supported widths. jacobi is the deliberate exception:
// its boundary ternary lowers to real branches, so it must report
// ineligibility and fall back.
func TestDifferentialLaneKernelSuite(t *testing.T) {
	cost := DefaultCostModel()
	rng := rand.New(rand.NewSource(20260808))
	for name, p := range kernelSuite(t) {
		p := p
		t.Run(name, func(t *testing.T) {
			if name == "jacobi/fp32" || name == "jacobi/fp24" {
				if lc := p.LaneCompiled(&cost, 8); lc != nil {
					t.Fatal("jacobi is branchy and must not lane-compile")
				}
				if reason := LaneFallbackReason(p); reason == "" {
					t.Fatal("jacobi must report a lane fallback reason")
				}
				return
			}
			if reason := LaneFallbackReason(p); reason != "" {
				t.Fatalf("kernel unexpectedly ineligible: %s", reason)
			}
			for _, width := range []int{2, 4, 8, 16} {
				for _, n := range []int{1, width / 2, width} {
					if n < 1 {
						n = 1
					}
					uni := make([]Vec4, maxi(p.NumUniform, 1))
					for i := range uni {
						uni[i] = Vec4{rng.Float32(), rng.Float32(), rng.Float32(), rng.Float32()}
					}
					var inputs [][]Vec4
					for lane := 0; lane < n; lane++ {
						in := make([]Vec4, maxi(p.NumInputs, 1))
						for i := range in {
							in[i] = Vec4{rng.Float32() * 16, rng.Float32() * 16, 0.5, 1}
						}
						inputs = append(inputs, in)
					}
					runLaneDiff(t, p, &cost, width, n, uni, inputs)
				}
			}
		})
	}
}

// TestLaneSpecialValues pins per-lane propagation of the numeric edge
// cases — NaN, ±Inf, −0 — through representative f32-native ops (the
// min32/max32 special-case order, signed-zero selection, NaN collapse)
// with different special values in different lanes of one batch.
func TestLaneSpecialValues(t *testing.T) {
	cost := DefaultCostModel()
	p := &Program{
		NumTemps: 2, NumInputs: 2, NumOutputs: 2, NumUniform: 1,
		Insts: []Inst{
			{Op: OpADD, Dst: DstReg(FileTemp, 0, 4), A: SrcReg(FileInput, 0), B: SrcReg(FileInput, 1)},
			{Op: OpMIN, Dst: DstReg(FileTemp, 1, 4), A: SrcReg(FileInput, 0), B: SrcReg(FileInput, 1)},
			{Op: OpMAX, Dst: DstReg(FileOutput, 0, 4), A: SrcReg(FileTemp, 0), B: SrcReg(FileTemp, 1)},
			{Op: OpMUL, Dst: DstReg(FileTemp, 0, 4), A: SrcReg(FileInput, 0), B: SrcReg(FileInput, 1)},
			{Op: OpSGN, Dst: DstReg(FileOutput, 1, 4), A: SrcReg(FileTemp, 0)},
			{Op: OpRET},
		},
	}
	nan := float32(math.NaN())
	pinf := float32(math.Inf(1))
	ninf := float32(math.Inf(-1))
	nzero := float32(math.Copysign(0, -1))
	inputs := [][]Vec4{
		{{nan, 1, pinf, nzero}, {2, nan, ninf, 0}},
		{{pinf, ninf, nan, nan}, {ninf, pinf, nan, 1}},
		{{nzero, 0, nzero, nzero}, {0, nzero, nzero, 0}},
		{{1, -1, 0.5, -0.5}, {-1, 1, -0.5, 0.5}},
	}
	uni := []Vec4{{0, 0, 0, 0}}
	for _, width := range []int{4, 8} {
		runLaneDiff(t, p, &cost, width, len(inputs), uni, inputs)
	}
}

// TestLanePartialBatch covers live-lane counts that do not divide the
// width (the tail batch of a tile walk): every n in [1, width].
func TestLanePartialBatch(t *testing.T) {
	cost := DefaultCostModel()
	rng := rand.New(rand.NewSource(7))
	p := randomProgram(rng, false)
	const width = 8
	for n := 1; n <= width; n++ {
		uni, inputs := fuzzInputs(rng, p, n)
		runLaneDiff(t, p, &cost, width, n, uni, inputs)
	}
}

// TestLaneIneligible pins each fallback clause: real branch, discard,
// early RET, and the branchless fall-through exception that stays
// eligible.
func TestLaneIneligible(t *testing.T) {
	cost := DefaultCostModel()
	mov := Inst{Op: OpMOV, Dst: DstReg(FileOutput, 0, 4), A: SrcReg(FileInput, 0)}
	cases := []struct {
		name     string
		insts    []Inst
		eligible bool
	}{
		{"real-branch", []Inst{{Op: OpBR, Target: 2}, mov, {Op: OpRET}}, false},
		{"real-brz", []Inst{{Op: OpBRZ, A: SrcReg(FileInput, 0), Target: 2}, mov, mov, {Op: OpRET}}, false},
		{"discard", []Inst{{Op: OpKIL, A: SrcReg(FileInput, 0)}, mov, {Op: OpRET}}, false},
		{"early-ret", []Inst{{Op: OpRET}, mov}, false},
		{"fallthrough-br", []Inst{{Op: OpBR, Target: 1}, mov, {Op: OpRET}}, true},
		{"fallthrough-brz", []Inst{{Op: OpBRZ, A: SrcReg(FileInput, 0), Target: 1}, mov, {Op: OpRET}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &Program{NumTemps: 1, NumInputs: 1, NumOutputs: 1, NumUniform: 1, Insts: tc.insts}
			lc := p.LaneCompiled(&cost, 8)
			reason := LaneFallbackReason(p)
			if tc.eligible {
				if lc == nil {
					t.Fatalf("expected eligible, got fallback: %s", reason)
				}
				if reason != "" {
					t.Fatalf("eligible program reported reason %q", reason)
				}
			} else {
				if lc != nil {
					t.Fatal("expected lane-ineligible")
				}
				if reason == "" {
					t.Fatal("ineligible program must report a reason")
				}
			}
		})
	}
}

// TestLaneDstAliasing pins the staged-write path: an instruction whose
// destination register is also a source must see pre-instruction values
// for every component (the interpreter reads sources into locals first).
func TestLaneDstAliasing(t *testing.T) {
	cost := DefaultCostModel()
	swap := Src{File: FileTemp, Reg: 0, Swiz: [4]uint8{1, 0, 3, 2}}
	p := &Program{
		NumTemps: 1, NumInputs: 1, NumOutputs: 1, NumUniform: 1,
		Insts: []Inst{
			{Op: OpMOV, Dst: DstReg(FileTemp, 0, 4), A: SrcReg(FileInput, 0)},
			// r0 = r0.yxwz — every written component reads another one.
			{Op: OpMOV, Dst: DstReg(FileTemp, 0, 4), A: swap},
			// r0.xy += r0.yx with a partial mask: masked-out components
			// must keep their (already swapped) values.
			{Op: OpADD, Dst: Dst{File: FileTemp, Reg: 0, Mask: 0x3}, A: SrcReg(FileTemp, 0), B: swap},
			{Op: OpMOV, Dst: DstReg(FileOutput, 0, 4), A: SrcReg(FileTemp, 0)},
			{Op: OpRET},
		},
	}
	inputs := [][]Vec4{
		{{1, 2, 3, 4}},
		{{-1, 0.5, -0.25, 8}},
		{{0, float32(math.Copysign(0, -1)), 1, -1}},
	}
	runLaneDiff(t, p, &cost, 4, len(inputs), []Vec4{{}}, inputs)
}

// TestLaneEnvPoolReuse pins pooling behaviour: Get returns a previously
// Put environment (no reallocation), sized for the pool's width.
func TestLaneEnvPoolReuse(t *testing.T) {
	p := &Program{NumTemps: 1, NumInputs: 1, NumOutputs: 1, NumUniform: 1,
		Insts: []Inst{{Op: OpRET}}}
	pool := NewLaneEnvPool(p, 8)
	e1 := pool.Get()
	if e1.Width != 8 {
		t.Fatalf("pool env width %d, want 8", e1.Width)
	}
	pool.Put(e1)
	if e2 := pool.Get(); e2 != e1 {
		t.Fatal("pool must reuse returned environments")
	}
}

// TestLaneRunAllocs asserts the lane executor's per-batch hot path —
// SetInput gather, Run (including TEX fetches), Output scatter — performs
// zero heap allocations once the compiled form and environment exist.
func TestLaneRunAllocs(t *testing.T) {
	cost := DefaultCostModel()
	p := &Program{
		NumTemps: 2, NumInputs: 1, NumOutputs: 1, NumUniform: 1,
		Insts: []Inst{
			{Op: OpTEX, Dst: DstReg(FileTemp, 0, 4), A: SrcReg(FileInput, 0)},
			{Op: OpMAD, Dst: DstReg(FileTemp, 1, 4), A: SrcReg(FileTemp, 0), B: SrcReg(FileUniform, 0), C: SrcReg(FileInput, 0)},
			{Op: OpMUL, Dst: DstReg(FileOutput, 0, 4), A: SrcReg(FileTemp, 1), B: Src{File: FileTemp, Reg: 0, Swiz: [4]uint8{3, 2, 1, 0}, Neg: true}},
			{Op: OpRET},
		},
	}
	const width = 8
	lc := p.LaneCompiled(&cost, width)
	if lc == nil {
		t.Fatal("program must lane-compile")
	}
	env := NewLaneEnv(p, width)
	env.Samplers = []TexFunc{func(u, v float32) Vec4 { return Vec4{u, v, u + v, 1} }}
	in := Vec4{0.25, 0.5, 0.75, 1}
	var sink Vec4
	allocs := testing.AllocsPerRun(200, func() {
		for l := 0; l < width; l++ {
			env.SetInput(l, 0, in)
		}
		env.N = width
		lc.Run(env)
		sink = env.Output(width-1, 0)
	})
	if allocs != 0 {
		t.Fatalf("lane hot path allocated %.1f times per batch, want 0", allocs)
	}
	_ = sink
}
