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
//	glesbench -workers 1    # host shading workers (default GOMAXPROCS)
//
// Stdout carries only virtual-time results, so a default run is
// byte-comparable with glesbench_output.txt at any -workers value;
// per-figure host times go to stderr. -workers is the only
// host-execution setting. Host-time benchmarking lives in perfbench/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// realMain runs glesbench with args and returns the process exit code.
// Every failure returns rather than exits, so the deferred profile writers
// always flush.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("glesbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figure to reproduce: "+strings.Join(figures, ", ")+" or all")
	size := fs.Int("size", 1024, "matrix dimension for timing runs (paper: 1024)")
	calib := fs.Int("calib", 64, "matrix dimension for the functional validation run")
	iters := fs.Int("iters", 100, "measured benchmark-body repetitions")
	workers := fs.Int("workers", 0, "host fragment-shading workers (0: GOMAXPROCS, 1: serial); virtual-time results are identical at any setting")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *fig != "all" && !slices.Contains(figures, *fig) {
		fmt.Fprintf(stderr, "glesbench: unknown figure %q (want %s or all)\n", *fig, strings.Join(figures, ", "))
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "glesbench: cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "glesbench: cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "glesbench: cpuprofile: %v\n", err)
			}
		}()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "glesbench: memprofile: %v\n", err)
			return
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "glesbench: memprofile: %v\n", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "glesbench: memprofile: %v\n", err)
		}
	}()

	// Interrupts cancel between measurement iterations instead of killing
	// the process mid-figure, so profiles still flush.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := bench.Opts{
		PaperSize: *size, CalibSize: *calib, Iters: *iters, Workers: *workers,
	}
	if err := runFigures(ctx, *fig, o, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "glesbench: %v\n", err)
		return 1
	}
	return 0
}

// tabler is any figure result that renders as a table.
type tabler interface{ Table() *bench.Table }

// runFigures prints the selected figure (or every figure for "all") to
// stdout and its host wall-clock time to stderr, so stdout stays
// byte-comparable with the recorded reference output.
func runFigures(ctx context.Context, fig string, o bench.Opts, stdout, stderr io.Writer) error {
	devs := bench.Devices()
	run := func(name string, f func() ([]tabler, error)) error {
		if fig != "all" && fig != name {
			return nil
		}
		hostStart := time.Now()
		rs, err := f()
		if err != nil {
			return fmt.Errorf("figure %s: %w", name, err)
		}
		fmt.Fprintf(stderr, "glesbench: figure %s: host %v\n", name, time.Since(hostStart).Round(time.Millisecond))
		for _, r := range rs {
			if err := r.Table().Write(stdout); err != nil {
				return err
			}
		}
		return nil
	}
	one := func(r tabler, err error) ([]tabler, error) { return []tabler{r}, err }

	for _, f := range []struct {
		name string
		run  func() ([]tabler, error)
	}{
		{"3", func() ([]tabler, error) {
			r, err := bench.Fig3(ctx, devs, o)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(stdout, "Headline: best sum speedup over the ES2-best-practices baseline: %.1fx (paper: >16x)\n\n", r.Headline)
			return []tabler{r}, nil
		}},
		{"vbo", func() ([]tabler, error) { return one(bench.FigVBO(ctx, devs, o)) }},
		{"4a", func() ([]tabler, error) { return one(bench.Fig4a(ctx, devs, o)) }},
		{"4b", func() ([]tabler, error) { return one(bench.Fig4b(ctx, devs, o)) }},
		{"5a", func() ([]tabler, error) { return one(bench.Fig5(ctx, devs, core.TargetTexture, o)) }},
		{"5b", func() ([]tabler, error) { return one(bench.Fig5(ctx, devs, core.TargetFramebuffer, o)) }},
		{"journey", func() ([]tabler, error) {
			var rs []tabler
			for _, dev := range devs {
				for _, spec := range []bench.Spec{{Workload: bench.WSum}, {Workload: bench.WSgemm, Block: 16}} {
					r, err := bench.Incremental(ctx, dev, spec, o)
					if err != nil {
						return nil, err
					}
					rs = append(rs, r)
				}
			}
			return rs, nil
		}},
		{"ablation", func() ([]tabler, error) {
			var rs []tabler
			for _, dev := range devs {
				r, err := bench.Ablation(ctx, dev, o)
				if err != nil {
					return nil, err
				}
				rs = append(rs, r)
			}
			return rs, nil
		}},
	} {
		if err := run(f.name, f.run); err != nil {
			return err
		}
	}
	return nil
}
