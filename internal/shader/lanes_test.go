package shader

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gles2gpgpu/internal/glsl"
	"gles2gpgpu/internal/kernels"
)

// Differential testing of the lane-batched (SoA) backend against the
// reference interpreter: a batch of N lanes must produce, for every lane,
// bit-identical outputs and the same Discarded flag as a serial
// interpreter invocation with the same inputs, and the batch's
// Cycles/TexFetches deltas must equal the serial sums — divergence and
// all. Bitwise comparison: sign of zero matters, all NaNs form one
// equivalence class.

// runLaneDiff executes p serially (interpreter, one fresh Env per lane)
// and as one lane batch, then compares per-lane outputs, Discarded flags
// and summed counters. uni is broadcast to all lanes, inputs[lane] feeds
// lane's input bank. n may be less than width (partial batch).
func runLaneDiff(t *testing.T, p *Program, width, n int, uni []Vec4, inputs [][]Vec4) {
	t.Helper()
	lc := CompileLanes(p, width)
	if lc == nil {
		t.Fatalf("forward-branching program did not lane-compile at width %d:\n%s", width, p.Disassemble())
	}

	le := NewLaneEnv(p, width)
	le.Sample = diffSampler
	le.SetUniforms(uni)
	var wantOut [][]Vec4
	var wantDiscard []bool
	var wantCycles, wantTex int64
	for lane := 0; lane < n; lane++ {
		e := NewEnv(p)
		e.Sample = diffSampler
		copy(e.Uniforms, uni)
		copy(e.Inputs, inputs[lane])
		if err := Run(p, e); err != nil {
			t.Fatalf("interp lane %d: %v", lane, err)
		}
		wantOut = append(wantOut, append([]Vec4(nil), e.Outputs...))
		wantDiscard = append(wantDiscard, e.Discarded)
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
		if le.Discarded[lane] != wantDiscard[lane] {
			t.Fatalf("lane %d Discarded divergence: serial %v, lanes %v (w=%d n=%d)\n%s",
				lane, wantDiscard[lane], le.Discarded[lane], width, n, p.Disassemble())
		}
		// Outputs are compared even for discarded lanes: the lane engine
		// executes exactly the interpreter's prefix for that lane, so the
		// partially-written output bank must match too.
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
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProgram(rng, false) // straight-line: one segment
		width := 2 + rng.Intn(MaxLaneWidth-1)
		for probe := 0; probe < 2; probe++ {
			n := 1 + rng.Intn(width)
			uni, inputs := fuzzInputs(rng, p, n)
			runLaneDiff(t, p, width, n, uni, inputs)
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

// TestDifferentialMaskedLaneFuzz drives 400 quick-generated seeds through
// randomized IR programs *with* control flow — forward BR/BRZ, KIL, early
// RET, programs that split into several segments — at random widths and
// live-lane counts. Every lane must match a serial interpreter
// run bitwise, including the Discarded flag and per-lane-summed counters.
func TestDifferentialMaskedLaneFuzz(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProgram(rng, true) // forward branches, KIL, early RET
		width := 2 + rng.Intn(MaxLaneWidth-1)
		for probe := 0; probe < 2; probe++ {
			n := 1 + rng.Intn(width)
			uni, inputs := fuzzInputs(rng, p, n)
			runLaneDiff(t, p, width, n, uni, inputs)
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 400,
		Rand:     rand.New(rand.NewSource(20260808)),
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// runKernelSuite runs every generated kernel through the lane engine at
// each width and each live-lane count ns(width) yields. Every kernel is
// lane-eligible, jacobi — branchy, so it diverges within a batch —
// included.
func runKernelSuite(t *testing.T, widths []int, ns func(width int) []int) {
	rng := rand.New(rand.NewSource(20260808))
	for name, p := range kernelSuite(t) {
		p := p
		t.Run(name, func(t *testing.T) {
			for _, width := range widths {
				for _, n := range ns(width) {
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
					runLaneDiff(t, p, width, n, uni, inputs)
				}
			}
		})
	}
}

// TestDifferentialLaneKernelSuite runs the kernel suite at every
// power-of-two width with full, half and single-lane batches.
func TestDifferentialLaneKernelSuite(t *testing.T) {
	runKernelSuite(t, []int{2, 4, 8, 16}, func(w int) []int { return []int{1, w / 2, w} })
}

// TestDifferentialMaskedKernelSuite runs the kernel suite at odd partial
// batches (w/2+1 live lanes), where jacobi's boundary lanes and interior
// lanes split unevenly.
func TestDifferentialMaskedKernelSuite(t *testing.T) {
	runKernelSuite(t, []int{2, 8, 16}, func(w int) []int { return []int{1, w/2 + 1, w} })
}

// TestLaneSpecialValues pins per-lane propagation of the numeric edge
// cases — NaN, ±Inf, −0 — through representative f32-native ops (the
// min32/max32 special-case order, signed-zero selection, NaN collapse)
// with different special values in different lanes of one batch.
func TestLaneSpecialValues(t *testing.T) {
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
		runLaneDiff(t, p, width, len(inputs), uni, inputs)
	}
}

// TestLanePartialBatch covers live-lane counts that do not divide the
// width (the tail batch of a tile walk): every n in [1, width].
func TestLanePartialBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomProgram(rng, false)
	const width = 8
	for n := 1; n <= width; n++ {
		uni, inputs := fuzzInputs(rng, p, n)
		runLaneDiff(t, p, width, n, uni, inputs)
	}
}

// TestLaneSegments pins the block structure Run depends on: every
// straight-line kernel compiles to one segment with no terminator (the
// case Run charges statically, with no resume index or active scan), and
// both branchy kernels, jacobi and jacobi8, to several segments.
func TestLaneSegments(t *testing.T) {
	progs := kernelSuite(t)
	for _, o := range []struct {
		tag  string
		opts kernels.Options
	}{{"fp32", kernels.DefaultOptions}, {"fp24", kernels.FP24Options}} {
		cs, err := glsl.Frontend(kernels.Jacobi8(16, 16, o.opts), glsl.CompileOptions{Stage: glsl.StageFragment})
		if err != nil {
			t.Fatal(err)
		}
		if progs["jacobi8/"+o.tag], err = Compile(cs); err != nil {
			t.Fatal(err)
		}
	}
	for name, p := range progs {
		lc := CompileLanes(p, LaneWidth)
		if lc == nil {
			t.Fatalf("%s: does not lane-compile", name)
		}
		if strings.HasPrefix(name, "jacobi") {
			if len(lc.segs) < 2 {
				t.Errorf("%s: %d segment(s), want several", name, len(lc.segs))
			}
			continue
		}
		if len(lc.segs) != 1 || lc.segs[0].term != termNone {
			t.Errorf("%s: %d segment(s), first terminator %d; want one segment with none",
				name, len(lc.segs), lc.segs[0].term)
		}
	}
}

// TestMaskedDivergencePinned pins a hand-built divergence scenario where
// different lanes take each path of a BRZ, one lane discards, and one lane
// early-returns — the branchy lane engine's whole feature matrix in one
// batch.
func TestMaskedDivergencePinned(t *testing.T) {
	p := &Program{
		NumTemps: 2, NumInputs: 2, NumOutputs: 1, NumUniform: 1,
		Insts: []Inst{
			// if (in0.x == 0) goto else-branch (pc 4)
			{Op: OpBRZ, A: SrcReg(FileInput, 0), Target: 4},
			{Op: OpKIL, A: SrcReg(FileInput, 1)},                                                         // then: maybe discard
			{Op: OpMUL, Dst: DstReg(FileOutput, 0, 4), A: SrcReg(FileInput, 0), B: SrcReg(FileInput, 0)}, // then: out = in0²
			{Op: OpBR, Target: 6}, // skip else
			{Op: OpADD, Dst: DstReg(FileOutput, 0, 4), A: SrcReg(FileInput, 0), B: SrcReg(FileInput, 1)}, // else: out = in0+in1
			{Op: OpTEX, Dst: DstReg(FileTemp, 0, 4), A: SrcReg(FileInput, 1)},                            // else-only fetch
			{Op: OpBRZ, A: SrcReg(FileInput, 1), Target: 8},                                              // join: maybe early ret
			{Op: OpRET},
			{Op: OpMOV, Dst: Dst{File: FileOutput, Reg: 0, Mask: 0x8}, A: SrcReg(FileUniform, 0)},
			{Op: OpRET},
		},
	}
	inputs := [][]Vec4{
		{{1, 0, 0, 0}, {0, 0, 0, 0}},  // then-path, no discard, early ret
		{{0, 0, 0, 0}, {0, 0, 0, 0}},  // else-path (TEX), early ret
		{{2, 0, 0, 0}, {1, 0, 0, 0}},  // then-path, discards at pc 1
		{{0, 0, 0, 0}, {3, 0, 0, 0}},  // else-path, runs to the end
		{{-1, 0, 0, 0}, {2, 0, 0, 0}}, // then-path, discards
		{{5, 0, 0, 0}, {0, 5, 0, 0}},  // then-path, no discard (cond reads .x)
	}
	uni := []Vec4{{0.25, 0.5, 0.75, 1}}
	for _, width := range []int{6, 8, 16} {
		runLaneDiff(t, p, width, len(inputs), uni, inputs)
	}
}

// eligibilityCase is one row of an eligibility table: a one-input,
// one-output program and whether the lane engine must admit it.
type eligibilityCase struct {
	name     string
	insts    []Inst
	eligible bool
}

// checkLaneEligibility asserts CompileLanes and LaneFallbackAt agree with
// each row's verdict, and that every rejection carries a reason. The rows
// pin the control-flow clause, so each program asserts both liveness
// proofs: LaneFallbackAt then judges its branches alone.
func checkLaneEligibility(t *testing.T, cases []eligibilityCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &Program{NumTemps: 1, NumInputs: 1, NumOutputs: 1, NumUniform: 1, Insts: tc.insts,
				WritesBeforeReads: true, OutputsAlwaysWritten: true}
			lc := CompileLanes(p, 8)
			_, reason := LaneFallbackAt(p)
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

var eligMov = Inst{Op: OpMOV, Dst: DstReg(FileOutput, 0, 4), A: SrcReg(FileInput, 0)}

// TestLaneIneligible pins that real branches, discard, early RET and
// fall-through branches all run on the lane engine.
func TestLaneIneligible(t *testing.T) {
	mov := eligMov
	checkLaneEligibility(t, []eligibilityCase{
		{"real-branch", []Inst{{Op: OpBR, Target: 2}, mov, {Op: OpRET}}, true},
		{"real-brz", []Inst{{Op: OpBRZ, A: SrcReg(FileInput, 0), Target: 2}, mov, mov, {Op: OpRET}}, true},
		{"discard", []Inst{{Op: OpKIL, A: SrcReg(FileInput, 0)}, mov, {Op: OpRET}}, true},
		{"early-ret", []Inst{{Op: OpRET}, mov}, true},
		{"fallthrough-br", []Inst{{Op: OpBR, Target: 1}, mov, {Op: OpRET}}, true},
		{"fallthrough-brz", []Inst{{Op: OpBRZ, A: SrcReg(FileInput, 0), Target: 1}, mov, {Op: OpRET}}, true},
	})
}

// TestMaskedIneligible pins the divergence clauses: forward jumps, discard
// and early RET split into masked segments, while backward branches are out
// (unbounded divergence).
func TestMaskedIneligible(t *testing.T) {
	mov := eligMov
	checkLaneEligibility(t, []eligibilityCase{
		{"forward-br", []Inst{{Op: OpBR, Target: 2}, mov, {Op: OpRET}}, true},
		{"forward-brz", []Inst{{Op: OpBRZ, A: SrcReg(FileInput, 0), Target: 2}, mov, mov, {Op: OpRET}}, true},
		{"discard", []Inst{{Op: OpKIL, A: SrcReg(FileInput, 0)}, mov, {Op: OpRET}}, true},
		{"early-ret", []Inst{{Op: OpRET}, mov}, true},
		{"self-loop", []Inst{mov, {Op: OpBR, Target: 1}, {Op: OpRET}}, false},
		{"backward-brz", []Inst{mov, {Op: OpBRZ, A: SrcReg(FileInput, 0), Target: 0}, {Op: OpRET}}, false},
	})
}

// TestLaneOpcodeCoverage runs every opcode the IR defines through
// CompileLanes and against the interpreter, so an opcode added without a
// lane body fails here rather than in a draw.
func TestLaneOpcodeCoverage(t *testing.T) {
	inputs := [][]Vec4{{{0.5, -2, 3, 0}}, {{0, 1, -0.25, 8}}, {{-1.5, 0.75, 0, 2}}}
	for op := Op(0); op < opMax; op++ {
		t.Run(op.String(), func(t *testing.T) {
			p := &Program{
				NumTemps: 1, NumInputs: 1, NumOutputs: 1, NumUniform: 1,
				Insts: []Inst{
					{Op: op, Dst: DstReg(FileTemp, 0, 4), A: SrcReg(FileInput, 0), B: SrcReg(FileUniform, 0), C: SrcReg(FileInput, 0), Target: 2},
					{Op: OpMOV, Dst: DstReg(FileOutput, 0, 4), A: SrcReg(FileInput, 0)},
					{Op: OpMOV, Dst: Dst{File: FileOutput, Reg: 0, Mask: 0x1}, A: SrcReg(FileTemp, 0)},
					{Op: OpRET},
				},
			}
			runLaneDiff(t, p, 4, len(inputs), []Vec4{{0.25, 2, -1, 0.5}}, inputs)
		})
	}
}

// TestLaneDstAliasing pins the staged-write path: an instruction whose
// destination register is also a source must see pre-instruction values
// for every component (the interpreter reads sources into locals first).
func TestLaneDstAliasing(t *testing.T) {
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
	runLaneDiff(t, p, 4, len(inputs), []Vec4{{}}, inputs)
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
	lc := CompileLanes(p, width)
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

// TestMaskedRunAllocs asserts the branchy hot path allocates nothing per
// batch once compiled: the lanes diverge inside every batch, so the
// active-lane scan and the write-set save reuse LaneEnv state.
func TestMaskedRunAllocs(t *testing.T) {
	p := &Program{
		NumTemps: 2, NumInputs: 1, NumOutputs: 1, NumUniform: 1,
		Insts: []Inst{
			{Op: OpBRZ, A: SrcReg(FileInput, 0), Target: 3},
			{Op: OpTEX, Dst: DstReg(FileTemp, 0, 4), A: SrcReg(FileInput, 0)},
			{Op: OpBR, Target: 4},
			{Op: OpMOV, Dst: DstReg(FileTemp, 0, 4), A: SrcReg(FileUniform, 0)},
			{Op: OpMUL, Dst: DstReg(FileOutput, 0, 4), A: SrcReg(FileTemp, 0), B: SrcReg(FileInput, 0)},
			{Op: OpRET},
		},
	}
	const width = 8
	lc := CompileLanes(p, width)
	if lc == nil {
		t.Fatal("program must lane-compile")
	}
	env := NewLaneEnv(p, width)
	env.Samplers = []TexFunc{func(u, v float32) Vec4 { return Vec4{u, v, u + v, 1} }}
	var sink Vec4
	allocs := testing.AllocsPerRun(200, func() {
		for l := 0; l < width; l++ {
			v := float32(l & 1) // alternate branch paths within the batch
			env.SetInput(l, 0, Vec4{v, 0.5, 0.75, 1})
		}
		env.N = width
		lc.Run(env)
		sink = env.Output(width-1, 0)
	})
	if allocs != 0 {
		t.Fatalf("branchy hot path allocated %.1f times per batch, want 0", allocs)
	}
	_ = sink
}
