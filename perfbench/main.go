// Command perfbench is the repository's standing benchmark. It runs one
// workload per process — figures, dispatch or serve — for a fixed time,
// verifies every timed operation, and prints one JSON result line. With
// -trace 1 it instead records spans around each call into a layer and
// reports the per-layer split of the same work. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run, the same on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"rss_mb", "MB"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"capacity_jobs_s", "1/s"},
}

// perLayer are the metrics of a traced run. A workload that does not reach
// a layer reports 0 for it.
var perLayer = []metricSpec{
	{"glsl.frontend_ms", "ms"},
	{"gles.compile_ms", "ms"},
	{"core.engine_ms", "ms"},
	{"gles.calib_ms", "ms"},
	{"timing.ns_per_draw", "ns"},
	{"gpu.draws", "count"},
	{"codec.upload_ms", "ms"},
	{"codec.readback_ms", "ms"},
	{"gles.sum_draw_ms", "ms"},
	{"core.sgemm_ms", "ms"},
	{"core.jacobi8_ms", "ms"},
	{"gles.elided_ratio", "ratio"},
	{"gles.lane_fallback_draws", "count"},
	{"pipeline.compile_ms", "ms"},
	{"pipeline.run_ms", "ms"},
	{"pipeline.passes_fused", "count"},
	{"core.pool_hit_ratio", "ratio"},
	{"serve.worker_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.json_encode_ms", "ms"},
	{"serve.json_decode_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"shard.hop_ms", "ms"},
	{"serve.batch_mean", "count"},
	{"serve.warm_hit_ratio", "ratio"},
	{"shard.balance", "ratio"},
	{"shard.retries", "count"},
	{"loadgen.late_p90_ms", "ms"},
	{"go.alloc_mb", "MB"},
	{"go.mallocs", "count"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

// setupRuns is how many times a run builds its workload state; setup_s is
// the median.
const setupRuns = 5

// options are the command-line settings of one run.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	// broken lists violated invariants other than per-op verification
	// (exact counts, balance, warmth); any entry makes the run incorrect.
	broken []string
	values map[string]float64
	spans  []span
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.broken = append(o.broken, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(options) (*outcome, error){
	"figures":  runFigures,
	"dispatch": runDispatch,
	"serve":    runServe,
}

func main() {
	name := flag.String("workload", "", "workload to run: figures, dispatch or serve")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "how long the timed phases run")
	traced := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	traceDir := flag.String("trace-dir", ".", "directory for the traced run's Chrome trace file")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload figures|dispatch|serve, -seconds > 0 and -trace 0|1\n")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *traced == 1}
	out, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
		path := filepath.Join(*traceDir, "trace-"+*name+".json")
		if err := writeChrome(path, out.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(out.spans), path)
	} else {
		out.values["rss_mb"] = peakRSSMB()
	}
	for _, b := range out.broken {
		fmt.Fprintf(os.Stderr, "perfbench: %s: invariant violated: %s\n", *name, b)
	}
	if err := printResult(os.Stdout, out, specs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// printResult writes the one-line JSON result.
func printResult(w io.Writer, out *outcome, specs []metricSpec) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, s := range specs {
		v := out.values[s.name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// JSON has no infinity; a failed op already made the run
			// incorrect, so report the largest finite number instead.
			v = math.MaxFloat64
		}
		metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0 && len(out.broken) == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// medianSetup builds the workload state setupRuns times and returns the
// median build time in seconds with the last state; earlier states are
// closed.
func medianSetup[S any](build func() (S, error), close func(S)) (float64, S, error) {
	var times []float64
	var state S
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			close(state)
		}
		runtime.GC()
		start := time.Now()
		s, err := build()
		if err != nil {
			var zero S
			return 0, zero, err
		}
		times = append(times, time.Since(start).Seconds())
		state = s
	}
	return median(times), state, nil
}

// memDelta measures Go heap allocation around a piece of work.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

// stop returns MiB allocated, mallocs and GC cycles since startMem.
func (d *memDelta) stop() (allocMB, mallocs, gcs float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-d.before.TotalAlloc) / (1 << 20),
		float64(after.Mallocs - d.before.Mallocs),
		float64(after.NumGC - d.before.NumGC)
}

// closedLoop runs op back to back until the budget is spent and at least
// minOps ops ran, collecting garbage before each. op returns the time of
// its timed part; an op that fails verification is recorded as +Inf. Ops
// alternate traced and untraced when interleave is set, so both halves
// see the same machine conditions.
func closedLoop(budget time.Duration, minOps int, interleave bool,
	op func(i int, traced bool) (time.Duration, error)) (plain, traced []float64, failed int) {
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < budget; i++ {
		t := interleave && i%2 == 1
		runtime.GC()
		d, err := op(i, t)
		v := ms(d)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, err)
			failed++
			v = math.Inf(1)
		}
		if t {
			traced = append(traced, v)
		} else {
			plain = append(plain, v)
		}
	}
	return plain, traced, failed
}

// overheadPct compares the traced ops' median with the untraced ones'.
func overheadPct(plain, traced []float64) float64 {
	return (median(traced)/median(plain) - 1) * 100
}
