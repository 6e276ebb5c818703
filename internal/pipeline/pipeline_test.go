package pipeline

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gles2gpgpu/internal/codec"
	"gles2gpgpu/internal/core"
	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/kernels"
	"gles2gpgpu/internal/ref"
	"gles2gpgpu/internal/shader"
)

func baseConfig(n int) core.Config {
	return core.Config{
		Device: device.Generic(),
		Width:  n, Height: n,
		Swap:   core.SwapNone,
		Target: core.TargetTexture,
		UseVBO: true,
	}
}

func newEngine(t *testing.T, cfg core.Config) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func randMatrix(rows, cols int, seed int64) *codec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := codec.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64() * 0.999
	}
	return m
}

func uploadSrc(t *testing.T, e *core.Engine, m *codec.Matrix) map[string]*core.Tensor {
	t.Helper()
	src := e.NewTensor(m.Rows, m.Cols, codec.Range{Lo: 0, Hi: 1})
	if err := src.Upload(m, false); err != nil {
		t.Fatal(err)
	}
	return map[string]*core.Tensor{SrcInput: src}
}

// stageFrag builds a trivially elementwise kernel for structural tests.
func stageFrag() string { return kernels.ScaleBias(kernels.DefaultOptions) }

func TestGraphValidation(t *testing.T) {
	frag := stageFrag()
	ok := Stage{Name: "a", Frag: frag, W: 4, H: 4,
		Inputs:   []Binding{{Sampler: "text0", External: "src"}},
		Uniforms: map[string][]float32{"scale": {1}, "bias": {0}}}
	cases := []struct {
		name string
		g    Graph
		want string
	}{
		{"empty", Graph{}, "no stages"},
		{"no-name", Graph{Stages: []Stage{{Frag: frag, W: 4, H: 4}}}, "empty name"},
		{"dup-name", Graph{Stages: []Stage{ok, ok}}, "duplicate stage name"},
		{"bad-size", Graph{Stages: []Stage{{Name: "a", Frag: frag, W: 0, H: 4}}}, "invalid size"},
		{"no-frag", Graph{Stages: []Stage{{Name: "a", W: 4, H: 4}}}, "no fragment source"},
		{"dup-sampler", Graph{Stages: []Stage{{Name: "a", Frag: frag, W: 4, H: 4,
			Inputs: []Binding{{Sampler: "text0", External: "x"}, {Sampler: "text0", External: "y"}}}},
			Outputs: []string{"a"}}, "twice"},
		{"both-sources", Graph{Stages: []Stage{{Name: "a", Frag: frag, W: 4, H: 4,
			Inputs: []Binding{{Sampler: "text0", Stage: "b", External: "x"}}}},
			Outputs: []string{"a"}}, "exactly one"},
		{"neither-source", Graph{Stages: []Stage{{Name: "a", Frag: frag, W: 4, H: 4,
			Inputs: []Binding{{Sampler: "text0"}}}}, Outputs: []string{"a"}}, "exactly one"},
		{"self-sample", Graph{Stages: []Stage{{Name: "a", Frag: frag, W: 4, H: 4,
			Inputs: []Binding{{Sampler: "text0", Stage: "a"}}}}, Outputs: []string{"a"}}, "samples itself"},
		{"dangling", Graph{Stages: []Stage{{Name: "a", Frag: frag, W: 4, H: 4,
			Inputs: []Binding{{Sampler: "text0", Stage: "ghost"}}}}, Outputs: []string{"a"}}, "unknown stage"},
		{"shape-w", Graph{Stages: []Stage{
			{Name: "a", Frag: frag, W: 4, H: 4, Inputs: []Binding{{Sampler: "text0", External: "x"}}},
			{Name: "b", Frag: frag, W: 8, H: 8, Inputs: []Binding{{Sampler: "text0", Stage: "a", WantW: 8}}},
		}, Outputs: []string{"b"}}, "wide"},
		{"shape-h", Graph{Stages: []Stage{
			{Name: "a", Frag: frag, W: 4, H: 4, Inputs: []Binding{{Sampler: "text0", External: "x"}}},
			{Name: "b", Frag: frag, W: 8, H: 8, Inputs: []Binding{{Sampler: "text0", Stage: "a", WantH: 8}}},
		}, Outputs: []string{"b"}}, "tall"},
		{"no-outputs", Graph{Stages: []Stage{{Name: "a", Frag: frag, W: 4, H: 4,
			Inputs: []Binding{{Sampler: "text0", External: "x"}}}}}, "no outputs"},
		{"bad-output", Graph{Stages: []Stage{{Name: "a", Frag: frag, W: 4, H: 4,
			Inputs: []Binding{{Sampler: "text0", External: "x"}}}}, Outputs: []string{"z"}}, "names no stage"},
		{"dup-output", Graph{Stages: []Stage{{Name: "a", Frag: frag, W: 4, H: 4,
			Inputs: []Binding{{Sampler: "text0", External: "x"}}}}, Outputs: []string{"a", "a"}}, "duplicate output"},
		{"cycle", Graph{Stages: []Stage{
			{Name: "a", Frag: frag, W: 4, H: 4, Inputs: []Binding{{Sampler: "text0", Stage: "b"}}},
			{Name: "b", Frag: frag, W: 4, H: 4, Inputs: []Binding{{Sampler: "text0", Stage: "a"}}},
		}, Outputs: []string{"b"}}, "cycle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.g.Validate()
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestCompileBindingErrors(t *testing.T) {
	e := newEngine(t, baseConfig(8))
	// Sampler name the shader does not declare.
	g := Graph{Stages: []Stage{{Name: "a", Frag: stageFrag(), W: 8, H: 8,
		Inputs: []Binding{{Sampler: "nosuch", External: "src"}}}}, Outputs: []string{"a"}}
	if _, err := Compile(e, g); err == nil || !strings.Contains(err.Error(), "does not declare") {
		t.Fatalf("undeclared sampler: got %v", err)
	}
	// Declared sampler left unbound.
	g = Graph{Stages: []Stage{{Name: "a", Frag: stageFrag(), W: 8, H: 8}}, Outputs: []string{"a"}}
	if _, err := Compile(e, g); err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Fatalf("unbound sampler: got %v", err)
	}
	// Bad GLSL surfaces the compile error.
	g = Graph{Stages: []Stage{{Name: "a", Frag: "void main() {", W: 8, H: 8}}, Outputs: []string{"a"}}
	if _, err := Compile(e, g); err == nil {
		t.Fatal("bad GLSL: want error")
	}
}

func TestRunExternalErrors(t *testing.T) {
	e := newEngine(t, baseConfig(8))
	g := Graph{Stages: []Stage{{Name: "a", Frag: stageFrag(), W: 8, H: 8,
		Inputs:   []Binding{{Sampler: "text0", External: "src", WantW: 8, WantH: 8}},
		Uniforms: map[string][]float32{"scale": {1}, "bias": {0}}}}, Outputs: []string{"a"}}
	p, err := Compile(e, g)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	if _, err := p.Run(nil); err == nil || !strings.Contains(err.Error(), "needs external input") {
		t.Fatalf("missing external: got %v", err)
	}
	bad := e.NewTensor(4, 4, codec.Range{Lo: 0, Hi: 1})
	if _, err := p.Run(map[string]*core.Tensor{"src": bad}); err == nil || !strings.Contains(err.Error(), "wide") {
		t.Fatalf("shape mismatch: got %v", err)
	}
}

// visionCase is one prebuilt pipeline with its expected fusion count.
type visionCase struct {
	name      string
	graph     func(n int) Graph
	wantFused int
}

func visionCases(n int) []visionCase {
	o := kernels.DefaultOptions
	return []visionCase{
		{"sepconv", func(n int) Graph { return SepConvGraph(n, n, o) }, 1},
		{"adaptive", func(n int) Graph { return AdaptiveThresholdGraph(n, n, 2, o) }, 1},
		{"histeq", func(n int) Graph { return HistEqGraph(n, n, 8, o) }, 1},
		{"sobel", func(n int) Graph { return SobelGraph(n, n, o) }, 0},
		{"pyramid", func(n int) Graph {
			g, err := PyramidGraph(n, 3, o)
			if err != nil {
				panic(err)
			}
			return g
		}, 0},
	}
}

func TestFusionDecisions(t *testing.T) {
	const n = 16
	e := newEngine(t, baseConfig(n))
	for _, tc := range visionCases(n) {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Compile(e, tc.graph(n))
			if err != nil {
				t.Fatal(err)
			}
			defer p.Release()
			if got := p.FusedPairs(); got != tc.wantFused {
				t.Errorf("fused pairs = %d, want %d; decisions: %+v", got, tc.wantFused, p.Decisions())
			}
			for _, d := range p.Decisions() {
				if !d.Fused && d.Reason == "" {
					t.Errorf("unfused edge %s→%s has no reason", d.Producer, d.Consumer)
				}
			}
			// Every composed program must take the GLES fast path: the
			// lane engine admits everything the compiler emits (see
			// internal/shader/admission_test.go for the other sets).
			for _, g := range p.groups {
				if !g.fused() {
					continue
				}
				if pc, reason := shader.LaneFallbackAt(e.GL().ProgramFS(g.kernel.Program())); pc != -1 {
					t.Errorf("fused composite rejected by the lane engine at pc %d: %s", pc, reason)
				}
			}
		})
	}
	// Spot-check the reason taxonomy.
	p, err := Compile(e, SobelGraph(n, n, kernels.DefaultOptions))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	reasons := map[string]string{}
	for _, d := range p.Decisions() {
		reasons[d.Producer+"→"+d.Consumer] = d.Reason
	}
	if r := reasons["smooth→sobelx"]; r != "multi-consumer" {
		t.Errorf("smooth→sobelx reason = %q, want multi-consumer", r)
	}
	if r := reasons["sobelx→magnitude"]; !strings.Contains(r, "producer-not-elementwise") {
		t.Errorf("sobelx→magnitude reason = %q", r)
	}
	if r := reasons["magnitude→nonmax"]; !strings.Contains(r, "consumer-not-elementwise") {
		t.Errorf("magnitude→nonmax reason = %q", r)
	}
	pg, err := PyramidGraph(n, 2, kernels.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Compile(e, pg)
	if err != nil {
		t.Fatal(err)
	}
	defer pp.Release()
	for _, d := range pp.Decisions() {
		// Every level is an output, and sizes differ; the output gate fires
		// first in the planner's order.
		if d.Fused {
			t.Errorf("pyramid edge %s→%s unexpectedly fused", d.Producer, d.Consumer)
		}
	}
}

// runPlan compiles g on a fresh engine and runs it iters times, returning
// per-run output bytes, per-run virtual times, and the final plan+engine.
func runPlan(t *testing.T, cfg core.Config, fuse bool, g Graph, m *codec.Matrix, iters int) ([][]byte, []*RunStats, *Plan, *core.Engine) {
	t.Helper()
	e := newEngine(t, cfg)
	ext := uploadSrc(t, e, m)
	p, err := compile(e, g, fuse)
	if err != nil {
		t.Fatal(err)
	}
	var outs [][]byte
	var stats []*RunStats
	for i := 0; i < iters; i++ {
		rs, err := p.Run(ext)
		if err != nil {
			t.Fatal(err)
		}
		stats = append(stats, rs)
		var buf bytes.Buffer
		for _, name := range g.Outputs {
			raw, err := p.Output(name).ReadRaw()
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(raw)
		}
		outs = append(outs, buf.Bytes())
	}
	return outs, stats, p, e
}

// TestFusionParity is the acceptance matrix: for every vision pipeline and
// every host-execution knob combination, the fused plan must produce
// byte-identical outputs, virtual times, cycle counts and fetch counts to
// the unfused plan.
func TestFusionParity(t *testing.T) {
	const n = 16
	const iters = 3
	m := randMatrix(n, n, 7)
	knobs := []struct {
		name string
		mut  func(*core.Config)
	}{
		{"default", func(c *core.Config) {}},
		{"workers1", func(c *core.Config) { c.Workers = 1 }},
	}
	for _, tc := range visionCases(n) {
		for _, kb := range knobs {
			t.Run(tc.name+"/"+kb.name, func(t *testing.T) {
				cfg := baseConfig(n)
				kb.mut(&cfg)

				outA, statsA, planA, engA := runPlan(t, cfg, true, tc.graph(n), m, iters)
				outB, statsB, planB, engB := runPlan(t, cfg, false, tc.graph(n), m, iters)
				defer planA.Release()
				defer planB.Release()

				for i := 0; i < iters; i++ {
					if !bytes.Equal(outA[i], outB[i]) {
						t.Errorf("run %d: fused output bytes differ from unfused", i)
					}
					if statsA[i].VirtualTime != statsB[i].VirtualTime {
						t.Errorf("run %d: fused VT %v != unfused VT %v",
							i, statsA[i].VirtualTime, statsB[i].VirtualTime)
					}
					for s := range statsA[i].Stages {
						if statsA[i].Stages[s] != statsB[i].Stages[s] {
							t.Errorf("run %d stage %d: %+v != %+v",
								i, s, statsA[i].Stages[s], statsB[i].Stages[s])
						}
					}
				}
				ra, rb := engA.Report(), engB.Report()
				if ra.Elapsed != rb.Elapsed {
					t.Errorf("elapsed: fused %v != unfused %v", ra.Elapsed, rb.Elapsed)
				}
				if ra.Stats != rb.Stats {
					t.Errorf("machine stats diverge:\nfused   %+v\nunfused %+v", ra.Stats, rb.Stats)
				}
				// Per-draw cycle and fetch counts, as cached by the timing
				// replay, must agree between the engines.
				for si, name := range planA.Stages() {
					fa, ca, xa, oka := engA.GL().DrawStatsFor(planA.stages[planA.order[si]].kernel.Program(),
						planA.stages[planA.order[si]].spec.W, planA.stages[planA.order[si]].spec.H)
					fb, cb, xb, okb := engB.GL().DrawStatsFor(planB.stages[planB.order[si]].kernel.Program(),
						planB.stages[planB.order[si]].spec.W, planB.stages[planB.order[si]].spec.H)
					if oka != okb || fa != fb || ca != cb || xa != xb {
						t.Errorf("stage %s: draw stats fused (%d,%d,%d,%v) != unfused (%d,%d,%d,%v)",
							name, fa, ca, xa, oka, fb, cb, xb, okb)
					}
				}
				if tc.wantFused > 0 {
					if statsA[0].Fused {
						t.Error("run 0 must execute unfused (stat priming)")
					}
					if !statsA[1].Fused || statsA[1].PassesFused != tc.wantFused {
						t.Errorf("run 1: fused=%v passes=%d, want fused with %d",
							statsA[1].Fused, statsA[1].PassesFused, tc.wantFused)
					}
					if _, fr, pf, _ := planA.Totals(); fr != iters-1 || pf != int64(tc.wantFused*(iters-1)) {
						t.Errorf("totals: fusedRuns=%d passesFused=%d", fr, pf)
					}
				}
				if _, fr, _, _ := planB.Totals(); fr != 0 {
					t.Errorf("unfused plan recorded %d fused runs", fr)
				}
			})
		}
	}
}

// TestVisionReference validates the pipelines against the float64
// references. Threshold/suppression outputs are compared away from
// decision boundaries, where float32-vs-float64 rounding can legitimately
// flip a comparison.
func TestVisionReference(t *testing.T) {
	const n = 32
	const tol = 2e-4
	m := randMatrix(n, n, 11)
	e := newEngine(t, baseConfig(n))
	ext := uploadSrc(t, e, m)
	o := kernels.DefaultOptions

	readOut := func(p *Plan, name string) []float64 {
		t.Helper()
		mat, err := p.Output(name).Read()
		if err != nil {
			t.Fatal(err)
		}
		return mat.Data
	}
	runTwice := func(g Graph) *Plan {
		t.Helper()
		p, err := Compile(e, g)
		if err != nil {
			t.Fatal(err)
		}
		// Two runs: the second takes the fused path when eligible, so the
		// reference comparison covers the fused bytes.
		for i := 0; i < 2; i++ {
			if _, err := p.Run(ext); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	maxDiff := func(got, want []float64, skip func(i int) bool) float64 {
		worst := 0.0
		for i := range want {
			if skip != nil && skip(i) {
				continue
			}
			d := want[i] - got[i]
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
		return worst
	}

	t.Run("sepconv", func(t *testing.T) {
		p := runTwice(SepConvGraph(n, n, o))
		defer p.Release()
		tmp1, tmp2 := make([]float64, n*n), make([]float64, n*n)
		ref.GaussBlurX(n, n, m.Data, tmp1)
		ref.GaussBlurY(n, n, tmp1, tmp2)
		ref.ScaleBias(1.2, -0.05, tmp2, tmp1)
		ref.GammaMap(0.8, tmp1, tmp2)
		if d := maxDiff(readOut(p, "gamma"), tmp2, nil); d > tol {
			t.Errorf("max error %g > %g", d, tol)
		}
	})

	t.Run("adaptive", func(t *testing.T) {
		p := runTwice(AdaptiveThresholdGraph(n, n, 2, o))
		defer p.Release()
		mean1, mean2 := make([]float64, n*n), make([]float64, n*n)
		diff, bin := make([]float64, n*n), make([]float64, n*n)
		ref.BoxMeanX(n, n, 2, m.Data, mean1)
		ref.BoxMeanY(n, n, 2, mean1, mean2)
		ref.DiffShift(m.Data, mean2, diff)
		ref.Binarize(0.5, diff, bin)
		got := readOut(p, "binarize")
		// Exclude pixels whose pre-threshold value sits on the decision
		// boundary.
		skip := func(i int) bool { d := diff[i] - 0.5; return d < 1e-4 && d > -1e-4 }
		if d := maxDiff(got, bin, skip); d > tol {
			t.Errorf("max error %g > %g", d, tol)
		}
	})

	t.Run("histeq", func(t *testing.T) {
		g := HistEqGraph(n, n, 8, o)
		p, err := Compile(e, g)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Release()
		// Fit the equalisation spline to the stretched image, as a host
		// would between frames.
		scale, bias := ref.ContrastStretch(m.Data)
		stretched := make([]float64, n*n)
		ref.ScaleBias(scale, bias, m.Data, stretched)
		p0, s := ref.HistEqSpline(stretched, 8)
		if err := p.SetFloat("stretch", "scale", float32(scale)); err != nil {
			t.Fatal(err)
		}
		if err := p.SetFloat("stretch", "bias", float32(bias)); err != nil {
			t.Fatal(err)
		}
		if err := p.SetFloat("equalize", "p0", float32(p0)); err != nil {
			t.Fatal(err)
		}
		s32 := make([]float32, len(s))
		for i, v := range s {
			s32[i] = float32(v)
		}
		if err := p.SetFloats("equalize", "s", s32); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := p.Run(ext); err != nil {
				t.Fatal(err)
			}
		}
		want := make([]float64, n*n)
		ref.SplineMap(p0, s, stretched, want)
		if d := maxDiff(readOut(p, "equalize"), want, nil); d > 1e-3 {
			t.Errorf("max error %g", d)
		}
	})

	t.Run("sobel", func(t *testing.T) {
		p := runTwice(SobelGraph(n, n, o))
		defer p.Release()
		smooth := make([]float64, n*n)
		gx, gy := make([]float64, n*n), make([]float64, n*n)
		mag, nm := make([]float64, n*n), make([]float64, n*n)
		ref.GaussBlurX(n, n, m.Data, smooth)
		ref.SobelX(n, n, smooth, gx)
		ref.SobelY(n, n, smooth, gy)
		ref.GradMag(gx, gy, mag)
		ref.NonMaxSuppress(n, n, mag, nm)
		got := readOut(p, "nonmax")
		// Exclude suppression ties: pixels whose magnitude is within eps of
		// a neighbour maximum can flip between keep and suppress.
		skip := func(i int) bool {
			x, y := i%n, i/n
			at := func(xx, yy int) float64 {
				if xx < 0 {
					xx = 0
				}
				if xx >= n {
					xx = n - 1
				}
				if yy < 0 {
					yy = 0
				}
				if yy >= n {
					yy = n - 1
				}
				return mag[yy*n+xx]
			}
			hmax := at(x-1, y)
			if r := at(x+1, y); r > hmax {
				hmax = r
			}
			vmax := at(x, y-1)
			if d := at(x, y+1); d > vmax {
				vmax = d
			}
			v := mag[i]
			near := func(a, b float64) bool { d := a - b; return d < 1e-4 && d > -1e-4 }
			return near(v, hmax) || near(v, vmax)
		}
		if d := maxDiff(got, nm, skip); d > tol {
			t.Errorf("max error %g > %g", d, tol)
		}
	})

	t.Run("pyramid", func(t *testing.T) {
		g, err := PyramidGraph(n, 3, o)
		if err != nil {
			t.Fatal(err)
		}
		p := runTwice(g)
		defer p.Release()
		l1, l2, l3 := make([]float64, n*n/4), make([]float64, n*n/16), make([]float64, n*n/64)
		ref.Reduce2x2Mean(n, m.Data, l1)
		ref.Reduce2x2Mean(n/2, l1, l2)
		ref.Reduce2x2Mean(n/4, l2, l3)
		for _, lv := range []struct {
			name string
			want []float64
		}{{"level1", l1}, {"level2", l2}, {"level3", l3}} {
			if d := maxDiff(readOut(p, lv.name), lv.want, nil); d > tol {
				t.Errorf("%s: max error %g > %g", lv.name, d, tol)
			}
		}
	})
}

// TestGraphFuzz drives Compile/Run with a corpus of randomly shaped DAGs:
// every graph either compiles and runs or fails with a clean error — never
// a panic.
func TestGraphFuzz(t *testing.T) {
	const n = 8
	o := kernels.DefaultOptions
	frags := []struct {
		src      string
		samplers int
		uniforms map[string][]float32
	}{
		{kernels.ScaleBias(o), 1, map[string][]float32{"scale": {1}, "bias": {0}}},
		{kernels.GammaMap(o), 1, map[string][]float32{"gamma": {1}}},
		{kernels.DiffShift(o), 2, nil},
		{kernels.GaussBlurX(n, o), 1, nil},
		{kernels.Binarize(o), 1, map[string][]float32{"thresh": {0.5}}},
	}
	e := newEngine(t, baseConfig(n))
	m := randMatrix(n, n, 3)
	ext := uploadSrc(t, e, m)
	samplerName := func(i int) string { return fmt.Sprintf("text%d", i) }
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nStages := 1 + rng.Intn(6)
		g := Graph{}
		for i := 0; i < nStages; i++ {
			f := frags[rng.Intn(len(frags))]
			st := Stage{
				Name: fmt.Sprintf("s%d", i), Frag: f.src,
				W: n, H: n, Uniforms: f.uniforms,
			}
			// Sometimes emit a broken stage shape on purpose.
			switch rng.Intn(12) {
			case 0:
				st.W = 0
			case 1:
				st.Name = ""
			}
			for s := 0; s < f.samplers; s++ {
				b := Binding{Sampler: samplerName(s)}
				switch rng.Intn(6) {
				case 0:
					b.External = SrcInput
				case 1:
					b.Stage = fmt.Sprintf("s%d", rng.Intn(nStages)) // may be later (cycle) or self
				case 2:
					b.Stage = "ghost"
				case 3:
					b.External = "unknown-ext"
				default:
					if i > 0 {
						b.Stage = fmt.Sprintf("s%d", rng.Intn(i))
					} else {
						b.External = SrcInput
					}
				}
				st.Inputs = append(st.Inputs, b)
			}
			g.Stages = append(g.Stages, st)
		}
		if rng.Intn(8) != 0 {
			g.Outputs = append(g.Outputs, fmt.Sprintf("s%d", rng.Intn(nStages)))
		}
		p, err := Compile(e, g)
		if err != nil {
			continue // clean rejection
		}
		if _, err := p.Run(ext); err != nil {
			// Runtime rejection (e.g. missing external) must be clean too.
			if !strings.Contains(err.Error(), "pipeline:") {
				t.Errorf("seed %d: unexpected run error: %v", seed, err)
			}
		}
		p.Release()
	}
}

// TestCompileUnfused checks that compiling with fusion off, the oracle
// the parity tests use, fuses no edge and records why.
func TestCompileUnfused(t *testing.T) {
	const n = 8
	e := newEngine(t, baseConfig(n))
	p, err := compile(e, HistEqGraph(n, n, 4, kernels.DefaultOptions), false)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	if p.FusedPairs() != 0 {
		t.Errorf("fused pairs = %d with fusion off", p.FusedPairs())
	}
	for _, d := range p.Decisions() {
		if d.Reason != "disabled" {
			t.Errorf("edge %s→%s reason %q, want disabled", d.Producer, d.Consumer, d.Reason)
		}
	}
}
