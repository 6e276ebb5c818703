// Command gpgpurun runs one GPGPU workload on a simulated device and
// reports the validated result quality and the virtual execution time —
// a quick way to explore the paper's optimisation space by hand.
//
// Usage:
//
//	gpgpurun -kernel sum   -device vc4 -size 256 -iters 100 -swap none -target texture
//	gpgpurun -kernel sgemm -device sgx -size 256 -block 16 -fp24
//
// With -serve it becomes a client of a gles2gpgpud daemon (or of a
// gles2gpgpud -router front-end) instead of running in-process:
//
//	gpgpurun -serve http://127.0.0.1:7433 -kernel sgemm -device sgx -size 64
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"gles2gpgpu/internal/codec"
	"gles2gpgpu/internal/core"
	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/kernels"
	"gles2gpgpu/internal/ref"
	"gles2gpgpu/internal/serve"
	"gles2gpgpu/internal/timing"
)

func main() {
	kernel := flag.String("kernel", "sum", "workload: sum, sgemm, saxpy, jacobi, conv")
	dev := flag.String("device", "vc4", "device: vc4, sgx or generic")
	size := flag.Int("size", 256, "matrix dimension")
	iters := flag.Int("iters", 10, "benchmark-body repetitions (first is functional, rest replay timing)")
	block := flag.Int("block", 16, "sgemm block size")
	swap := flag.String("swap", "none", "swap mode: vsync, interval0, none")
	target := flag.String("target", "texture", "render target: texture or framebuffer")
	fp24 := flag.Bool("fp24", false, "use the fp24/mul24 kernel-code optimisation")
	vbo := flag.Bool("vbo", true, "use vertex buffer objects")
	seed := flag.Int64("seed", 1, "input random seed")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the pipeline to this file")
	serveURL := flag.String("serve", "", "submit to a gles2gpgpud daemon at this base URL instead of running in-process")
	flag.Parse()

	if *serveURL != "" {
		client := &serve.Client{Base: strings.TrimRight(*serveURL, "/")}
		runRemote(client, *kernel, *dev, *size, *block, *seed)
		return
	}

	cfg := core.Config{Width: *size, Height: *size, UseVBO: *vbo}
	profile, err := device.ByName(*dev)
	if err != nil {
		fatal("%v", err)
	}
	cfg.Device = profile
	switch *swap {
	case "vsync":
		cfg.Swap = core.SwapVsync
	case "interval0":
		cfg.Swap = core.SwapNoVsync
	case "none":
		cfg.Swap = core.SwapNone
	default:
		fatal("unknown swap mode %q", *swap)
	}
	switch *target {
	case "texture":
		cfg.Target = core.TargetTexture
	case "framebuffer":
		cfg.Target = core.TargetFramebuffer
	default:
		fatal("unknown target %q", *target)
	}
	if *fp24 {
		cfg.Kernel = kernels.FP24Options
	}

	e, err := core.NewEngine(cfg)
	if err != nil {
		fatal("%v", err)
	}
	if *tracePath != "" {
		e.Machine().Trace.Enable(true)
	}
	rng := rand.New(rand.NewSource(*seed))
	mk := func() *codec.Matrix {
		m := codec.NewMatrix(*size, *size)
		for i := range m.Data {
			m.Data[i] = rng.Float64() * 0.999
		}
		return m
	}
	a, b := mk(), mk()

	var runner core.Runner
	var want []float64
	n := *size
	switch *kernel {
	case "sum":
		r, err := core.NewSum(e, a, b)
		if err != nil {
			fatal("%v", err)
		}
		runner = r
		want = make([]float64, n*n)
		ref.Sum(a.Data, b.Data, want)
	case "sgemm":
		r, err := core.NewSgemm(e, a, b, *block)
		if err != nil {
			fatal("%v", err)
		}
		runner = r
		want = make([]float64, n*n)
		ref.Sgemm(n, a.Data, b.Data, want)
	case "saxpy":
		r, err := core.NewSaxpy(e, 0.5, a, b)
		if err != nil {
			fatal("%v", err)
		}
		runner = r
		want = append([]float64(nil), b.Data...)
		ref.Saxpy(0.5, a.Data, want)
	case "jacobi":
		grid := codec.NewMatrix(n, n)
		for y := 0; y < n; y++ {
			grid.Set(y, 0, 0.9)
		}
		r, err := core.NewJacobi(e, grid)
		if err != nil {
			fatal("%v", err)
		}
		runner = r
	case "conv":
		var box [9]float32
		for i := range box {
			box[i] = 1.0 / 9
		}
		r, err := core.NewConv3x3(e, a, box)
		if err != nil {
			fatal("%v", err)
		}
		runner = r
		want = make([]float64, n*n)
		var k [9]float64
		for i := range k {
			k[i] = 1.0 / 9
		}
		ref.Convolve3x3(n, n, a.Data, k, want)
	default:
		fatal("unknown kernel %q", *kernel)
	}

	// First iteration functional (validates the numerics), remaining
	// iterations replay timing.
	if err := runner.RunOnce(context.Background()); err != nil {
		fatal("%v", err)
	}
	var result *codec.Matrix
	if want != nil {
		result, err = runner.Result()
		if err != nil {
			fatal("%v", err)
		}
	}
	e.SetTimingOnly(true)
	start := e.Now()
	for i := 1; i < *iters; i++ {
		if err := runner.RunOnce(context.Background()); err != nil {
			fatal("%v", err)
		}
	}
	e.Finish()
	total := e.Now()

	fmt.Printf("device:   %s\n", cfg.Device.Name)
	fmt.Printf("workload: %s %dx%d (swap=%s target=%s fp24=%v vbo=%v)\n",
		*kernel, n, n, *swap, *target, *fp24, *vbo)
	if want != nil {
		fmt.Printf("max abs error vs CPU reference: %.3g\n", ref.MaxAbsDiff(want, result.Data))
	}
	if *iters > 1 {
		per := (total - start) / timing.Time(*iters-1)
		fmt.Printf("virtual time per iteration (steady state): %v\n", per)
	}
	fmt.Printf("virtual time total: %v\n", total)
	st := e.Machine().Stats
	fmt.Printf("machine: draws=%d bubbles=%d copies=%d (%.1f MB) uploads=%d war-stalls=%d\n",
		st.Draws, st.Bubbles, st.CopyOps, float64(st.CopyBytes)/1e6, st.UploadOps, st.WARStalls)

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		if err := e.Machine().Trace.WriteChromeTrace(f); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("pipeline trace written to %s (open in chrome://tracing)\n", *tracePath)
	}
}

// runRemote submits one job to the daemon and validates the returned
// matrix against the CPU reference for the same deterministic inputs.
func runRemote(client *serve.Client, kernel, dev string, n, block int, seed int64) {
	p := serve.Params{Device: dev, Kernel: kernel, N: n, Block: block, Seed: seed}
	if kernel == "saxpy" {
		p.Alpha = 0.5
	}
	res, err := client.Do(context.Background(), p)
	if err != nil {
		fatal("%v", err)
	}
	a, b := p.Inputs()
	want := make([]float64, n*n)
	switch kernel {
	case "sum":
		ref.Sum(a.Data, b.Data, want)
	case "sgemm":
		ref.Sgemm(n, a.Data, b.Data, want)
	case "saxpy":
		copy(want, b.Data)
		ref.Saxpy(0.5, a.Data, want)
	default:
		fatal("kernel %q is not served by gles2gpgpud (sum, sgemm, saxpy)", kernel)
	}
	fmt.Printf("device:   %s (remote %s)\n", res.Device, client.Base)
	fmt.Printf("workload: %s %dx%d (batch %d/%d)\n", res.Kernel, n, n, res.BatchIndex+1, res.BatchSize)
	fmt.Printf("max abs error vs CPU reference: %.3g\n", ref.MaxAbsDiff(want, res.Out))
	fmt.Printf("virtual time: %v  host time: %.3f ms\n",
		res.VirtualTime, float64(res.HostNanos)/1e6)
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "gpgpurun: "+format+"\n", args...)
	os.Exit(1)
}
