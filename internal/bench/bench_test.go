package bench

import (
	"context"
	"strings"
	"testing"

	"gles2gpgpu/internal/core"
	"gles2gpgpu/internal/device"
)

// testOpts keeps harness tests quick: smaller timing size and fewer
// repetitions than the paper-scale defaults (ratios shift slightly but all
// qualitative relations must hold).
func testOpts() Opts {
	return Opts{PaperSize: 512, CalibSize: 32, Warm: 4, Iters: 20}
}

func TestMeasureValidates(t *testing.T) {
	cfg := core.Config{Device: device.Generic(), Swap: core.SwapNone, Target: core.TargetTexture, UseVBO: true}
	r, err := Measure(context.Background(), cfg, Spec{Workload: WSum}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.PerIteration <= 0 {
		t.Error("no time elapsed")
	}
	if r.ValidationErr > 1e-4 {
		t.Errorf("validation error %g", r.ValidationErr)
	}
	if r.Stats.Draws == 0 {
		t.Error("no draws recorded")
	}
}

func TestMeasureSgemmWorkload(t *testing.T) {
	cfg := core.Config{Device: device.Generic(), Swap: core.SwapNone, Target: core.TargetTexture, UseVBO: true}
	r, err := Measure(context.Background(), cfg, Spec{Workload: WSgemm, Block: 8}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	// One iteration = 512/8 = 64 passes.
	if r.Stats.Draws < 64 {
		t.Errorf("draws = %d, want >= 64 per multiplication", r.Stats.Draws)
	}
}

func TestFig3QualitativeShape(t *testing.T) {
	o := testOpts()
	r, err := Fig3(context.Background(), Devices(), o)
	if err != nil {
		t.Fatal(err)
	}
	vc := r.Speedup["VCore sum"]
	if len(vc) != 4 {
		t.Fatalf("VCore sum steps = %d", len(vc))
	}
	// VideoCore sum: large gain from interval 0 (vsync was gating), more
	// from removing the swap entirely.
	if vc[1] < 4 {
		t.Errorf("VCore sum interval0 speedup %.2f, want >> 1 (paper 9.22)", vc[1])
	}
	if vc[2] <= vc[1] {
		t.Errorf("no-swap (%.2f) not better than interval0 (%.2f)", vc[2], vc[1])
	}
	// SGX: interval 0 has NO effect (not vsync-gated), removing the swap
	// helps a lot for sum.
	sgx := r.Speedup["SGX sum"]
	if sgx[1] < 0.99 || sgx[1] > 1.01 {
		t.Errorf("SGX interval0 speedup %.2f, want 1.00 (paper: no effect)", sgx[1])
	}
	if sgx[2] < 1.5 {
		t.Errorf("SGX no-swap speedup %.2f, want substantial (paper 3.47)", sgx[2])
	}
	// sgemm is fragment-bound: far smaller swap effects than sum.
	for _, dev := range []string{"SGX", "VCore"} {
		sg := r.Speedup[dev+" sgemm"]
		sm := r.Speedup[dev+" sum"]
		if sg[2] >= sm[2] {
			t.Errorf("%s: sgemm no-swap speedup %.2f not below sum %.2f (compute-bound kernels benefit less)", dev, sg[2], sm[2])
		}
	}
	// fp24 improves (or at least never hurts) every series.
	for series, sp := range r.Speedup {
		if sp[3] < sp[2]*0.999 {
			t.Errorf("%s: fp24 regressed %.3f -> %.3f", series, sp[2], sp[3])
		}
	}
	if r.Headline < 10 {
		t.Errorf("headline combined speedup %.1f, want >10x (paper >16x at full size)", r.Headline)
	}
	if !strings.Contains(r.Table().String(), "Figure 3") {
		t.Error("table missing title")
	}
}

func TestFig4aQualitativeShape(t *testing.T) {
	r, err := Fig4a(context.Background(), Devices(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range []string{"SGX", "VCore"} {
		m := r.TexOverFB[dev]
		// sum without dependencies: texture rendering clearly wins.
		if m["sum"] < 1.5 {
			t.Errorf("%s sum: texture/FB = %.2f, want >1.5 (paper: orders of magnitude)", dev, m["sum"])
		}
		// sgemm: framebuffer rendering wins (<= 1).
		if m["sgemm"] > 1.05 {
			t.Errorf("%s sgemm: texture/FB = %.2f, want <= ~1 (paper: FB wins)", dev, m["sgemm"])
		}
	}
	// With artificial dependencies: SGX still prefers texture, VideoCore
	// flips to the framebuffer (DMA-assisted copies).
	if r.TexOverFB["SGX"]["sum+dep"] <= 1 {
		t.Errorf("SGX sum+dep: texture/FB = %.2f, want > 1", r.TexOverFB["SGX"]["sum+dep"])
	}
	if r.TexOverFB["VCore"]["sum+dep"] >= 1 {
		t.Errorf("VCore sum+dep: texture/FB = %.2f, want < 1", r.TexOverFB["VCore"]["sum+dep"])
	}
}

func TestFig4bQualitativeShape(t *testing.T) {
	o := testOpts()
	o.Iters = 10
	r, err := Fig4b(context.Background(), Devices(), o)
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range []string{"SGX", "VCore"} {
		for _, target := range []string{"framebuffer", "texture"} {
			times := r.Times[dev][target]
			// Performance increases with block size: time per multiply
			// strictly decreases.
			for i := 1; i < len(times); i++ {
				if times[i] >= times[i-1] {
					t.Errorf("%s %s: block %d (%v) not faster than block %d (%v)",
						dev, target, r.Blocks[i], times[i], r.Blocks[i-1], times[i-1])
				}
			}
		}
		// >16 fails compilation.
		if len(r.CompileFail[dev]) == 0 {
			t.Errorf("%s: no compile failures recorded for blocks > 16", dev)
		}
	}
	// SGX: FB loses at small blocks, wins at 16 (paper crossover at 4; at
	// the reduced test size the crossover may shift by one step).
	sgxFB, sgxTex := r.Times["SGX"]["framebuffer"], r.Times["SGX"]["texture"]
	if sgxFB[0] <= sgxTex[0] {
		t.Errorf("SGX block 1: FB (%v) should lose to texture (%v)", sgxFB[0], sgxTex[0])
	}
	last := len(sgxFB) - 1
	if sgxFB[last] > sgxTex[last] {
		t.Errorf("SGX block 16: FB (%v) should win over texture (%v)", sgxFB[last], sgxTex[last])
	}
	// VideoCore: FB wins at every block size.
	vcFB, vcTex := r.Times["VCore"]["framebuffer"], r.Times["VCore"]["texture"]
	for i := range vcFB {
		if vcFB[i] > vcTex[i] {
			t.Errorf("VCore block %d: FB (%v) should win over texture (%v)", r.Blocks[i], vcFB[i], vcTex[i])
		}
	}
}

func TestFig5QualitativeShape(t *testing.T) {
	// The reuse trade-off balances per-iteration allocation costs (fixed)
	// against copy/upload traffic (scales with size): it only lands where
	// the paper measured it at the paper's matrix size.
	o := testOpts()
	o.PaperSize = 1024
	// 5a: texture rendering.
	ra, err := Fig5(context.Background(), Devices(), core.TargetTexture, o)
	if err != nil {
		t.Fatal(err)
	}
	if v := ra.Speedup["VCore"]["sum"]; v < 1.05 {
		t.Errorf("5a VCore sum reuse speedup %.2f, want > 1.05 (paper +15%%)", v)
	}
	if v := ra.Speedup["SGX"]["sum"]; v > 1.0 {
		t.Errorf("5a SGX sum reuse speedup %.2f, want <= 1.0 (paper -2..7%%)", v)
	}
	// 5b: framebuffer rendering — no improvement anywhere; SGX sgemm
	// degrades notably (false sharing).
	rb, err := Fig5(context.Background(), Devices(), core.TargetFramebuffer, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range []string{"SGX", "VCore"} {
		for _, w := range []string{"sum", "sgemm"} {
			if v := rb.Speedup[dev][w]; v > 1.05 {
				t.Errorf("5b %s %s: reuse speedup %.2f, want <= ~1", dev, w, v)
			}
		}
	}
	if v := rb.Speedup["SGX"]["sgemm"]; v > 0.92 {
		t.Errorf("5b SGX sgemm: reuse speedup %.2f, want noticeable degradation (paper 0.70)", v)
	}
	if v := rb.Speedup["VCore"]["sgemm"]; v < 0.92 {
		t.Errorf("5b VCore sgemm: reuse speedup %.2f, want ~1 (DMA hides the copy)", v)
	}
}

func TestVBOExperiment(t *testing.T) {
	r, err := FigVBO(context.Background(), Devices(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	// VideoCore (CPU-bound sum): VBOs help a little; STATIC is the best
	// hint.
	vc := r.Speedup["VCore"]
	if vc[1] < 1.0 {
		t.Errorf("VCore STATIC VBO speedup %.3f, want >= 1", vc[1])
	}
	if vc[1] < vc[3] {
		t.Errorf("STATIC (%.3f) should beat DYNAMIC (%.3f)", vc[1], vc[3])
	}
	// The effect is small, as the paper says (≤ a few percent).
	if vc[1] > 1.1 {
		t.Errorf("VBO speedup %.3f implausibly large (paper: up to 1.5%%)", vc[1])
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Note: "n", Columns: []string{"a", "bb"}}
	tab.AddRow("x", "1.00x")
	s := tab.String()
	for _, want := range []string{"T", "n", "bb", "1.00x"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
}

func TestIncrementalJourney(t *testing.T) {
	o := testOpts()
	o.PaperSize = 1024 // reuse and copy trade-offs are size-sensitive
	o.Iters = 10
	// VideoCore sum: the journey must at least recover the vsync gate and
	// end far faster than the naive port.
	r, err := Incremental(context.Background(), device.VideoCoreIV(), Spec{Workload: WSum}, o)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalSpeedup < 3 {
		t.Errorf("VCore sum journey speedup %.1f, want substantial", r.TotalSpeedup)
	}
	if r.Final >= r.Naive {
		t.Error("journey did not improve on the naive port")
	}
	kept := map[string]bool{}
	for _, s := range r.Steps {
		if s.Kept && s.Time > r.Naive {
			t.Errorf("step %q kept but slower than naive", s.Name)
		}
		kept[s.Name] = s.Kept
	}
	if !kept["eglSwapInterval(0)"] {
		t.Error("VideoCore journey must keep eglSwapInterval(0) (vsync gate)")
	}
	// VideoCore sgemm: texture rendering must be REJECTED (Fig. 4a: FB
	// wins on VideoCore for the multi-pass kernel).
	r2, err := Incremental(context.Background(), device.VideoCoreIV(), Spec{Workload: WSgemm, Block: 16}, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r2.Steps {
		if s.Name == "texture rendering (FBO)" && s.Kept {
			t.Error("VideoCore sgemm journey kept texture rendering; the paper's Fig. 4a says FB wins")
		}
	}
	if !strings.Contains(r.Table().String(), "journey") {
		t.Error("table missing title")
	}
}

func TestAblationStudy(t *testing.T) {
	o := testOpts()
	o.Iters = 10
	r, err := Ablation(context.Background(), device.VideoCoreIV(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 5 {
		t.Fatalf("ablation rows = %d", len(r.Rows))
	}
	byName := map[string]AblationRow{}
	for _, row := range r.Rows {
		byName[row.Name] = row
		if row.Baseline <= 0 || row.Ablated <= 0 {
			t.Errorf("%s: non-positive times", row.Name)
		}
	}
	// Removing the deferred overlap must hurt the pipelined sum.
	if row := byName["deferred frame overlap (sum)"]; row.Impact <= 1 {
		t.Errorf("deferred overlap impact %.2f, want > 1", row.Impact)
	}
	// Removing glClear invalidation must hurt (tile reload + dependency).
	if row := byName["glClear target invalidation (sum)"]; row.Impact <= 1.2 {
		t.Errorf("invalidation impact %.2f, want > 1.2", row.Impact)
	}
	// Removing the flush *penalty* speeds the hazard up (it is a cost, not
	// an optimisation): impact < 1.
	if row := byName["dependency flush penalty (sgemm, texture)"]; row.Impact >= 1 {
		t.Errorf("flush-penalty impact %.2f, want < 1", row.Impact)
	}
	if !strings.Contains(r.Table().String(), "Ablation") {
		t.Error("table missing title")
	}
}

func TestMeasureRejectsBadWorkload(t *testing.T) {
	cfg := core.Config{Device: device.Generic(), Swap: core.SwapNone, Target: core.TargetTexture}
	if _, err := Measure(context.Background(), cfg, Spec{Workload: Workload(99)}, testOpts()); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestMeasureRejectsNegativeCounts(t *testing.T) {
	cfg := core.Config{Device: device.Generic(), Swap: core.SwapNone, Target: core.TargetTexture}
	for _, tc := range []struct {
		name        string
		warm, iters int
		wantErr     bool
	}{
		{"defaults", 0, 0, false},
		{"negative warm", -1, 20, true},
		{"negative iters", 4, -3, true},
		{"both negative", -8, -100, true},
	} {
		o := testOpts()
		o.Warm, o.Iters = tc.warm, tc.iters
		r, err := Measure(context.Background(), cfg, Spec{Workload: WSum}, o)
		if gotErr := err != nil; gotErr != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
		}
		if err == nil && r.PerIteration <= 0 {
			t.Errorf("%s: per-iteration time %v", tc.name, r.PerIteration)
		}
	}
}
