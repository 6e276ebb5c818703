// Command glesbench reproduces the paper's evaluation: every figure of
// "Optimisation Opportunities and Evaluation for GPGPU Applications on
// Low-End Mobile GPUs" (DATE 2017), printed as tables with the paper's
// reference numbers in the notes.
//
// Usage:
//
//	glesbench               # all figures
//	glesbench -fig 3        # one figure: 3, vbo, 4a, 4b, 5a, 5b
//	glesbench -size 1024    # matrix dimension of the timing runs
//	glesbench -iters 100    # repetitions per configuration
//	glesbench -nopasses     # disable the host shader optimisation passes
//	glesbench -nocoherence  # re-shade every tile instead of eliding unchanged ones
//	glesbench -micro        # add shader-exec and sampling microbenchmarks
//	glesbench -benchjson f  # machine-readable host-time results to f
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gles2gpgpu/internal/bench"
	"gles2gpgpu/internal/core"
	"gles2gpgpu/internal/gles"
	"gles2gpgpu/internal/raster"
	"gles2gpgpu/internal/shader"
)

// benchJSON is the -benchjson output document. Schema documented in
// README.md ("Machine-readable host times").
type benchJSON struct {
	Schema      string       `json:"schema"`
	GoVersion   string       `json:"go_version"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Workers     int          `json:"workers"`
	Passes      bool         `json:"passes"`
	QuadFast    bool         `json:"quad_fast"`
	Coherence   bool         `json:"coherence"`
	Figures     []figureTime `json:"figures"`
	TotalHostMS float64      `json:"total_host_ms"`
}

type figureTime struct {
	Figure string  `json:"figure"`
	HostMS float64 `json:"host_ms"`
	// Elided and Shaded are the tile-coherence counters of the coherence
	// figures (absent elsewhere).
	Elided int64 `json:"elided,omitempty"`
	Shaded int64 `json:"shaded,omitempty"`
	// Stages, PassesFused, ReadbacksElided and VirtualUS describe the
	// pipeline figures (absent elsewhere): passes per run, the planner's
	// lifetime fusion counter, intermediates kept on-device instead of
	// round-tripping through host floats, and the modelled device time in
	// microseconds (identical fused vs unfused; larger in readback mode).
	Stages          int     `json:"stages,omitempty"`
	PassesFused     int64   `json:"passes_fused,omitempty"`
	ReadbacksElided int64   `json:"readbacks_elided,omitempty"`
	VirtualUS       float64 `json:"virtual_us,omitempty"`
}

func main() {
	fig := flag.String("fig", "all", "figure to reproduce: 3, vbo, 4a, 4b, 5a, 5b or all; also journey, ablation, service, coherence, pipeline, or servebench (service, coherence, pipeline and servebench are opt-in only, never part of all)")
	size := flag.Int("size", 1024, "matrix dimension for timing runs (paper: 1024)")
	calib := flag.Int("calib", 64, "matrix dimension for the functional validation run")
	iters := flag.Int("iters", 100, "measured benchmark-body repetitions")
	workers := flag.Int("workers", 0, "host fragment-shading workers (0: GLES2GPGPU_WORKERS or GOMAXPROCS, 1: serial); virtual-time results are identical at any setting")
	nopasses := flag.Bool("nopasses", false, "disable the host shader optimisation passes (A/B escape hatch; the passes are cycle-neutral, so results are bit-identical, only host time changes)")
	nocoherence := flag.Bool("nocoherence", false, "re-shade every tile every draw instead of eliding tiles with unchanged inputs (A/B escape hatch; results are bit-identical, only host time changes)")
	nofuse := flag.Bool("nofuse", false, "disable proof-gated pass fusion in the pipeline planner (A/B escape hatch; results are bit-identical, only host time changes)")
	sbReplicas := flag.String("sb-replicas", "", "servebench: comma-separated fleet sizes to sweep (default 1,2,4)")
	sbRates := flag.String("sb-rates", "", "servebench: comma-separated Poisson arrival rates, jobs/sec (default 100,200)")
	sbJobs := flag.Int("sb-jobs", 0, "servebench: arrivals per sweep cell (0: default 192)")
	daemonbin := flag.String("daemonbin", "", "servebench: run replicas as subprocesses of this gles2gpgpud binary instead of in-process")
	micro := flag.Bool("micro", false, "also run the shader-execution and texture-sampling microbenchmarks; results go to stderr and -benchjson, never stdout")
	benchjson := flag.String("benchjson", "", "write machine-readable per-figure host times (JSON) to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *nofuse {
		// Route the flag through the same switch the engine config and
		// tests honour, so every pipeline compiled in this process plans
		// without fusion.
		os.Setenv("GLES2GPGPU_NO_FUSE", "1")
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
	// the process mid-figure, so profiles and -benchjson still flush.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := bench.Opts{
		PaperSize: *size, CalibSize: *calib, Iters: *iters, Workers: *workers,
		NoPasses: *nopasses, NoCoherence: *nocoherence,
	}
	devs := bench.Devices()
	report := benchJSON{
		Schema:     "gles2gpgpu.bench/1",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    *workers,
		Passes:     !*nopasses && shader.DefaultPasses(),
		QuadFast:   raster.QuadFast(),
		Coherence:  !*nocoherence && gles.DefaultCoherence(),
	}
	recordHost := func(name string, d time.Duration) {
		fmt.Fprintf(os.Stderr, "glesbench: figure %s: host %v\n", name, d.Round(time.Millisecond))
		report.Figures = append(report.Figures, figureTime{
			Figure: name, HostMS: float64(d.Microseconds()) / 1000,
		})
		report.TotalHostMS += float64(d.Microseconds()) / 1000
	}
	// Host wall-clock reporting goes to stderr (and, with -benchjson, to
	// the JSON document) so stdout stays byte-comparable with the recorded
	// reference output.
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
	if *fig == "coherence" {
		// Cross-iteration tile-coherence comparison (state-stepping
		// workloads with the elision cache on versus off). Opt-in only:
		// its output goes to stderr and -benchjson, never stdout, so the
		// recorded reference output is untouched.
		hostStart := time.Now()
		results, err := bench.Coherence(ctx, bench.CoherenceOpts{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "glesbench: coherence: %v\n", err)
			os.Exit(1)
		}
		for _, r := range results {
			name := r.Name()
			fmt.Fprintf(os.Stderr, "glesbench: %s: %d iters, %d elided, %d shaded, checksum %#x, host %.3fms\n",
				name, r.Iters, r.Elided, r.Shaded, r.Checksum, r.HostMS)
			report.Figures = append(report.Figures, figureTime{
				Figure: name, HostMS: r.HostMS, Elided: r.Elided, Shaded: r.Shaded,
			})
			report.TotalHostMS += r.HostMS
		}
		recordHost("coherence", time.Since(hostStart))
	}
	if *fig == "pipeline" {
		// Kernel-pipeline comparison (vision graphs executed fused,
		// unfused-resident and with per-stage host readbacks). Opt-in
		// only: its output goes to stderr and -benchjson, never stdout,
		// so the recorded reference output is untouched.
		hostStart := time.Now()
		results, err := bench.Pipelines(ctx, bench.PipelineOpts{NoFuse: *nofuse})
		if err != nil {
			fmt.Fprintf(os.Stderr, "glesbench: pipeline: %v\n", err)
			os.Exit(1)
		}
		for _, r := range results {
			name := r.Name()
			fmt.Fprintf(os.Stderr, "glesbench: %s: %d iters, %d stages, %d passes fused, %d readbacks elided, checksum %#x, virtual %.3fus, host %.3fms\n",
				name, r.Iters, r.Stages, r.PassesFused, r.ReadbacksElided, r.Checksum, r.VirtualTime.Microseconds(), r.HostMS)
			report.Figures = append(report.Figures, figureTime{
				Figure: name, HostMS: r.HostMS, Stages: r.Stages,
				PassesFused: r.PassesFused, ReadbacksElided: r.ReadbacksElided,
				VirtualUS: r.VirtualTime.Microseconds(),
			})
			report.TotalHostMS += r.HostMS
		}
		recordHost("pipeline", time.Since(hostStart))
	}
	if *fig == "service" {
		// Service-layer reuse comparison (gles2gpgpud's residency pool and
		// batch coalescing). Opt-in only: its table is not part of the
		// recorded reference output.
		hostStart := time.Now()
		results, err := bench.Service(ctx, bench.ServiceOpts{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "glesbench: service: %v\n", err)
			os.Exit(1)
		}
		bench.WriteServiceTable(os.Stdout, results)
		recordHost("service", time.Since(hostStart))
	}
	if *fig == "servebench" {
		// Fleet serving sweep: open-loop Poisson arrivals against N
		// gles2gpgpud replicas behind the shard router, affinity vs
		// round-robin vs the single-node direct baseline. Opt-in only;
		// its table goes to stderr and the servebench/2 document replaces
		// the bench/1 schema in -benchjson, so stdout and the recorded
		// reference output are untouched.
		hostStart := time.Now()
		sbo := bench.ServeBenchOpts{
			Jobs:      *sbJobs,
			DaemonBin: *daemonbin,
		}
		parseInts := func(s string) []int {
			var out []int
			for _, f := range strings.Split(s, ",") {
				v, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil {
					fmt.Fprintf(os.Stderr, "glesbench: servebench: bad count %q\n", f)
					os.Exit(1)
				}
				out = append(out, v)
			}
			return out
		}
		if *sbReplicas != "" {
			sbo.Replicas = parseInts(*sbReplicas)
		}
		if *sbRates != "" {
			for _, f := range strings.Split(*sbRates, ",") {
				v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
				if err != nil {
					fmt.Fprintf(os.Stderr, "glesbench: servebench: bad rate %q\n", f)
					os.Exit(1)
				}
				sbo.Rates = append(sbo.Rates, v)
			}
		}
		sbReport, err := bench.ServeBench(ctx, sbo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "glesbench: servebench: %v\n", err)
			os.Exit(1)
		}
		bench.WriteServeBenchTable(os.Stderr, sbReport)
		fmt.Fprintf(os.Stderr, "glesbench: figure servebench: host %v\n",
			time.Since(hostStart).Round(time.Millisecond))
		if *benchjson != "" {
			data, err := json.MarshalIndent(sbReport, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "glesbench: benchjson: %v\n", err)
				os.Exit(1)
			}
			if err := os.WriteFile(*benchjson, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "glesbench: benchjson: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}
	if *micro {
		// Microbenchmark output bypasses stdout entirely: the figure tables
		// above must stay byte-comparable with the recorded reference.
		results, err := bench.Micro(ctx, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "glesbench: micro: %v\n", err)
			os.Exit(1)
		}
		for _, r := range results {
			name := r.Name()
			fmt.Fprintf(os.Stderr, "glesbench: %s: %d invocations, %d cycles, host %.3fms\n",
				name, r.Invocations, r.Cycles, r.HostMS)
			report.Figures = append(report.Figures, figureTime{Figure: name, HostMS: r.HostMS})
			report.TotalHostMS += r.HostMS
		}
		sampling, err := bench.SamplingMicro(ctx, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "glesbench: micro: %v\n", err)
			os.Exit(1)
		}
		for _, r := range sampling {
			name := r.Name()
			fmt.Fprintf(os.Stderr, "glesbench: %s: %d fetches, host %.3fms\n", name, r.Fetches, r.HostMS)
			report.Figures = append(report.Figures, figureTime{Figure: name, HostMS: r.HostMS})
			report.TotalHostMS += r.HostMS
		}
		fragpath, err := bench.FragMicro(ctx, 0, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "glesbench: micro: %v\n", err)
			os.Exit(1)
		}
		for _, r := range fragpath {
			name := r.Name()
			fmt.Fprintf(os.Stderr, "glesbench: %s: %d fragments x %d draws, host %.3fms\n",
				name, r.Fragments, r.Draws, r.HostMS)
			report.Figures = append(report.Figures, figureTime{Figure: name, HostMS: r.HostMS})
			report.TotalHostMS += r.HostMS
		}
	}
	if *benchjson != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "glesbench: benchjson: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*benchjson, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "glesbench: benchjson: %v\n", err)
			os.Exit(1)
		}
	}
}
