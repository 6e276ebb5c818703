package serve_test

// End-to-end test of pipeline jobs through the gles2gpgpud service: a real
// HTTP daemon, a concurrent mix of vision-pipeline and single-kernel jobs,
// and a bit-identical comparison of every pipeline result against a direct
// run on a fresh default engine. The service keeps plans warm, so repeated
// jobs of one pipeline key run the fused schedule while the single direct
// run cannot; internal/pipeline's TestFusionParity pins the fusion
// contract (bytes identical, only host time changes) that makes the direct
// run a valid oracle.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"gles2gpgpu/internal/codec"
	"gles2gpgpu/internal/core"
	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/kernels"
	"gles2gpgpu/internal/pipeline"
	"gles2gpgpu/internal/serve"
)

// pipeStageCount is the per-graph stage count the Result.Stages breakdown
// must report.
var pipeStageCount = map[string]int{"sepconv": 4, "histeq": 2, "pyramid": 3}

func testGraph(t *testing.T, name string, n int) pipeline.Graph {
	t.Helper()
	o := kernels.DefaultOptions
	switch name {
	case "sepconv":
		return pipeline.SepConvGraph(n, n, o)
	case "histeq":
		return pipeline.HistEqGraph(n, n, 8, o)
	case "pyramid":
		g, err := pipeline.PyramidGraph(n, 3, o)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	t.Fatalf("testGraph: unknown pipeline %q", name)
	return pipeline.Graph{}
}

// directPipelineRun executes one pipeline job on a fresh default engine
// with no service machinery, returning the final declared output.
func directPipelineRun(t *testing.T, dev, name string, n int, seed int64) []float64 {
	t.Helper()
	prof, err := device.ByName(dev)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(core.Config{
		Device: prof,
		Width:  n, Height: n,
		Swap:   core.SwapNone,
		Target: core.TargetTexture,
		UseVBO: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, name, n)
	p, err := pipeline.Compile(e, g)
	if err != nil {
		t.Fatal(err)
	}
	params := serve.Params{Pipeline: name, N: n, Seed: seed}
	src := e.NewTensor(n, n, codec.Unit)
	if err := src.Upload(params.Source(), false); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(map[string]*core.Tensor{pipeline.SrcInput: src}); err != nil {
		t.Fatal(err)
	}
	e.Finish()
	out, err := p.Output(g.Outputs[len(g.Outputs)-1]).Read()
	if err != nil {
		t.Fatal(err)
	}
	return out.Data
}

func TestDaemonPipelineEndToEnd(t *testing.T) {
	devices := []string{"vc4", "sgx"}
	s, err := serve.New(serve.Config{
		Devices:    devices,
		QueueDepth: 128,
		MaxBatch:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	bg := context.Background()
	ctx, cancel := context.WithCancel(bg)
	ready := make(chan string, 1)
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- serve.ListenAndServe(ctx, "127.0.0.1:0", s, 30*time.Second, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not come up")
	}
	client := &serve.Client{Base: "http://" + addr}

	// A concurrent mix: every device sees repeated sepconv jobs (so its
	// warm plan reruns and, with fusion on, fuses), plus histeq, pyramid
	// and plain sum kernel jobs interleaved. Three distinct pipeline keys
	// and one kernel key per device stay within the warm-runner cache.
	const jobs = 32
	type jobSpec struct {
		dev, pipe, kernel string
		seed              int64
	}
	specs := make([]jobSpec, jobs)
	direct := map[jobSpec][]float64{}
	for i := range specs {
		sp := jobSpec{dev: devices[i%2], seed: int64(i%3) + 1}
		switch (i / 2) % 4 {
		case 0, 1:
			sp.pipe = "sepconv"
		case 2:
			if i%4 < 2 {
				sp.pipe = "histeq"
			} else {
				sp.pipe = "pyramid"
			}
		case 3:
			sp.kernel = "sum"
		}
		specs[i] = sp
		if _, ok := direct[sp]; ok {
			continue
		}
		if sp.kernel != "" {
			direct[sp] = directRun(t, sp.dev, sp.kernel, sp.seed)
		} else {
			direct[sp] = directPipelineRun(t, sp.dev, sp.pipe, e2eN, sp.seed)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, sp jobSpec) {
			defer wg.Done()
			p := serve.Params{Device: sp.dev, Kernel: sp.kernel, Pipeline: sp.pipe, N: e2eN, Seed: sp.seed}
			res, err := client.Do(bg, p)
			if err != nil {
				errs <- fmt.Errorf("job %d (%+v): %w", i, sp, err)
				return
			}
			want := direct[sp]
			if len(res.Out) != len(want) {
				errs <- fmt.Errorf("job %d (%+v): got %d values, want %d", i, sp, len(res.Out), len(want))
				return
			}
			for k := range want {
				if res.Out[k] != want[k] {
					errs <- fmt.Errorf("job %d (%+v): out[%d] = %v, direct = %v (must be bit-identical)",
						i, sp, k, res.Out[k], want[k])
					return
				}
			}
			if sp.pipe == "" {
				return
			}
			if res.Pipeline != sp.pipe || res.Kernel != "" {
				errs <- fmt.Errorf("job %d: placement echo %q/%q, want pipeline %q", i, res.Kernel, res.Pipeline, sp.pipe)
				return
			}
			if len(res.Stages) != pipeStageCount[sp.pipe] {
				errs <- fmt.Errorf("job %d (%s): %d stage stats, want %d", i, sp.pipe, len(res.Stages), pipeStageCount[sp.pipe])
				return
			}
			var sum int64
			for _, st := range res.Stages {
				if st.VirtualTime <= 0 {
					errs <- fmt.Errorf("job %d (%s): stage %q reports virtual time %v", i, sp.pipe, st.Name, st.VirtualTime)
					return
				}
				sum += int64(st.VirtualTime)
			}
			if int64(res.VirtualTime) < sum {
				errs <- fmt.Errorf("job %d (%s): job virtual time %v below stage sum %d", i, sp.pipe, res.VirtualTime, sum)
				return
			}
			if res.ReadbacksElided == 0 {
				errs <- fmt.Errorf("job %d (%s): no readbacks elided on a multi-stage pipeline", i, sp.pipe)
			}
		}(i, sp)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	text, err := client.Metrics(bg)
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range devices {
		label := fmt.Sprintf(`device=%q`, dev)
		if v, ok := metricValue(text, "gles2gpgpud_pipeline_stages_total", label); !ok || v <= 0 {
			t.Errorf("%s: pipeline stages = %v (found=%v), want > 0", dev, v, ok)
		}
		if v, ok := metricValue(text, "gles2gpgpud_pipeline_intermediate_readbacks_elided_total", label); !ok || v <= 0 {
			t.Errorf("%s: readbacks elided = %v (found=%v), want > 0", dev, v, ok)
		}
		// Each device ran sepconv repeatedly on one warm plan: the first
		// run primes the timing cache, later runs fuse its stretch→gamma
		// tail.
		if v, ok := metricValue(text, "gles2gpgpud_pipeline_passes_fused_total", label); !ok || v <= 0 {
			t.Errorf("%s: passes fused = %v (found=%v), want > 0", dev, v, ok)
		}
	}
	if v, ok := metricValue(text, "gles2gpgpud_jobs_failed_total", ""); ok && v != 0 {
		t.Errorf("failed jobs = %v, want 0", v)
	}

	cancel()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain")
	}
}
