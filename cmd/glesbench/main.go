// Command glesbench reproduces the paper's evaluation: every figure of
// "Optimisation Opportunities and Evaluation for GPGPU Applications on
// Low-End Mobile GPUs" (DATE 2017), printed as tables with the paper's
// reference numbers in the notes.
//
// Usage:
//
//	glesbench               # all figures
//	glesbench -fig 3        # one figure: 3, vbo, 4a, 4b, 5a, 5b, journey, ablation
//	glesbench -size 1024    # matrix dimension of the timing runs
//	glesbench -iters 100    # repetitions per configuration
//	glesbench -nopasses     # disable the host shader optimisation passes
//	glesbench -nocoherence  # re-shade every tile instead of eliding unchanged ones
//
// Stdout carries only virtual-time results, so a default run is
// byte-comparable with glesbench_output.txt; per-figure host times go to
// stderr. Host-time benchmarking lives in perfbench/.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"gles2gpgpu/internal/bench"
	"gles2gpgpu/internal/core"
)

// figures lists the -fig values in the order a full run prints them.
var figures = []string{"3", "vbo", "4a", "4b", "5a", "5b", "journey", "ablation"}

func main() {
	fig := flag.String("fig", "all", "figure to reproduce: "+strings.Join(figures, ", ")+" or all")
	size := flag.Int("size", 1024, "matrix dimension for timing runs (paper: 1024)")
	calib := flag.Int("calib", 64, "matrix dimension for the functional validation run")
	iters := flag.Int("iters", 100, "measured benchmark-body repetitions")
	workers := flag.Int("workers", 0, "host fragment-shading workers (0: GLES2GPGPU_WORKERS or GOMAXPROCS, 1: serial); virtual-time results are identical at any setting")
	nopasses := flag.Bool("nopasses", false, "disable the host shader optimisation passes (A/B escape hatch; the passes are cycle-neutral, so results are bit-identical, only host time changes)")
	nocoherence := flag.Bool("nocoherence", false, "re-shade every tile every draw instead of eliding tiles with unchanged inputs (A/B escape hatch; results are bit-identical, only host time changes)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *fig != "all" && !slices.Contains(figures, *fig) {
		fmt.Fprintf(os.Stderr, "glesbench: unknown figure %q (want %s or all)\n", *fig, strings.Join(figures, ", "))
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "glesbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "glesbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "glesbench: memprofile: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "glesbench: memprofile: %v\n", err)
		}
	}()

	// Interrupts cancel between measurement iterations instead of killing
	// the process mid-figure, so profiles still flush.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := bench.Opts{
		PaperSize: *size, CalibSize: *calib, Iters: *iters, Workers: *workers,
		NoPasses: *nopasses, NoCoherence: *nocoherence,
	}
	devs := bench.Devices()
	// Host wall-clock reporting goes to stderr so stdout stays
	// byte-comparable with the recorded reference output.
	recordHost := func(name string, d time.Duration) {
		fmt.Fprintf(os.Stderr, "glesbench: figure %s: host %v\n", name, d.Round(time.Millisecond))
	}
	run := func(name string, f func() (interface{ Table() *bench.Table }, error)) {
		if *fig != "all" && *fig != name {
			return
		}
		hostStart := time.Now()
		r, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "glesbench: figure %s: %v\n", name, err)
			os.Exit(1)
		}
		recordHost(name, time.Since(hostStart))
		if err := r.Table().Write(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	run("3", func() (interface{ Table() *bench.Table }, error) {
		r, err := bench.Fig3(ctx, devs, o)
		if err == nil {
			defer fmt.Printf("Headline: best sum speedup over the ES2-best-practices baseline: %.1fx (paper: >16x)\n\n", r.Headline)
		}
		return r, err
	})
	run("vbo", func() (interface{ Table() *bench.Table }, error) { return bench.FigVBO(ctx, devs, o) })
	run("4a", func() (interface{ Table() *bench.Table }, error) { return bench.Fig4a(ctx, devs, o) })
	run("4b", func() (interface{ Table() *bench.Table }, error) { return bench.Fig4b(ctx, devs, o) })
	run("5a", func() (interface{ Table() *bench.Table }, error) {
		return bench.Fig5(ctx, devs, core.TargetTexture, o)
	})
	run("5b", func() (interface{ Table() *bench.Table }, error) {
		return bench.Fig5(ctx, devs, core.TargetFramebuffer, o)
	})
	if *fig == "all" || *fig == "journey" {
		hostStart := time.Now()
		for _, dev := range devs {
			for _, spec := range []bench.Spec{{Workload: bench.WSum}, {Workload: bench.WSgemm, Block: 16}} {
				r, err := bench.Incremental(ctx, dev, spec, o)
				if err != nil {
					fmt.Fprintf(os.Stderr, "glesbench: journey: %v\n", err)
					os.Exit(1)
				}
				if err := r.Table().Write(os.Stdout); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
		}
		recordHost("journey", time.Since(hostStart))
	}
	if *fig == "all" || *fig == "ablation" {
		hostStart := time.Now()
		for _, dev := range devs {
			r, err := bench.Ablation(ctx, dev, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "glesbench: ablation: %v\n", err)
				os.Exit(1)
			}
			if err := r.Table().Write(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		recordHost("ablation", time.Since(hostStart))
	}
}
