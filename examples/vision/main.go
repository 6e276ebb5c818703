// Vision: the computer-vision pipeline suite on the kernel-pipeline API —
// separable convolution, adaptive thresholding, histogram equalisation,
// Sobel edges and a Gaussian pyramid, each a declarative DAG of fragment
// kernels planned onto the simulated mobile GPU.
//
// For every graph the example prints the planner's per-edge fusion
// verdicts (proof-gated: an edge fuses only when the shader analysis
// proves both sides elementwise with 1:1 texel footprints), then runs the
// fused plan. Fusion saves only host work, counted by passes fused and
// readbacks elided; the modelled device time is the unfused plan's, which
// internal/pipeline's TestFusionParity checks.
//
//	go run ./examples/vision
package main

import (
	"fmt"
	"log"

	gpgpu "gles2gpgpu"
)

const n = 64

// synthImage builds the test pattern: diagonal gradients with block steps,
// so thresholds and edge detectors have structure to find.
func synthImage() *gpgpu.Matrix {
	img := gpgpu.NewMatrix(n, n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			v := 0.5 + 0.4*float64(x-y)/n
			if (x/8+y/8)%3 == 0 {
				v *= 0.55
			}
			img.Set(y, x, v)
		}
	}
	return img
}

func graphs() map[string]gpgpu.PipelineGraph {
	o := gpgpu.DefaultKernelOptions
	pyr, err := gpgpu.PyramidGraph(n, 3, o)
	if err != nil {
		log.Fatal(err)
	}
	return map[string]gpgpu.PipelineGraph{
		"sepconv":  gpgpu.SepConvGraph(n, n, o),
		"adaptive": gpgpu.AdaptiveThresholdGraph(n, n, 2, o),
		"histeq":   gpgpu.HistEqGraph(n, n, 8, o),
		"sobel":    gpgpu.SobelGraph(n, n, o),
		"pyramid":  pyr,
	}
}

// run compiles one graph on a fresh engine, prints the planner's per-edge
// fusion verdicts, executes the plan `iters` times and returns the device
// clock and the plan's lifetime fusion counters.
func run(g gpgpu.PipelineGraph, iters int) (gpgpu.Time, int64, int64, error) {
	engine, err := gpgpu.NewEngine(gpgpu.Config{
		Device: gpgpu.GenericDevice(),
		Width:  n, Height: n,
		Swap:   gpgpu.SwapNone,
		Target: gpgpu.TargetTexture,
		UseVBO: true,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	plan, err := gpgpu.CompilePipeline(engine, g)
	if err != nil {
		return 0, 0, 0, err
	}
	defer plan.Release()
	for _, d := range plan.Decisions() {
		verdict := "fused"
		if !d.Fused {
			verdict = d.Reason
		}
		fmt.Printf("  %s -> %s: %s\n", d.Producer, d.Consumer, verdict)
	}
	src := engine.NewTensor(n, n, gpgpu.UnitRange)
	if err := src.Upload(synthImage(), false); err != nil {
		return 0, 0, 0, err
	}
	ext := map[string]*gpgpu.Tensor{gpgpu.PipelineSrcInput: src}
	for i := 0; i < iters; i++ {
		if _, err := plan.Run(ext); err != nil {
			return 0, 0, 0, err
		}
	}
	engine.Finish()
	_, _, fused, elided := plan.Totals()
	return engine.Now(), fused, elided, nil
}

func main() {
	const iters = 8
	gs := graphs()
	for _, name := range []string{"sepconv", "adaptive", "histeq", "sobel", "pyramid"} {
		g := gs[name]
		fmt.Printf("%s: %d stages\n", name, len(g.Stages))
		t, passesFused, elided, err := run(g, iters)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("  %d runs: device time %v, passes fused %d, readbacks elided %d\n",
			iters, t, passesFused, elided)
	}
}
