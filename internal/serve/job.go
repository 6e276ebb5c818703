// Package serve is the GPGPU compute service built on the paper's
// framework: a per-device scheduler that owns long-lived core Engines,
// batches compatible jobs so kernel and tensor setup amortises across
// requests, recycles texture allocations through the engines' residency
// pools (the Fig. 5 reuse optimisation applied across jobs), and pushes
// back under load with bounded queues. cmd/gles2gpgpud exposes it over
// HTTP (JSON requests; JSON or binary-frame results, see wire.go);
// gpgpurun -serve/-load embed the same scheduler and client.
package serve

import (
	"fmt"
	"math/rand"

	"gles2gpgpu/internal/codec"
	"gles2gpgpu/internal/timing"
)

// MaxJobSize is the largest matrix dimension the service admits — the
// paper's evaluation size. Larger grids are rejected at validation, before
// any engine work.
const MaxJobSize = 1024

// Params describes one compute job. Inputs are either carried inline (A/B,
// flat row-major) or generated deterministically from Seed, so a client can
// reproduce any job's inputs — and its exact result — offline. A job is
// either a single kernel (Kernel) or a whole vision pipeline (Pipeline),
// never both.
type Params struct {
	// Device is the target platform: "vc4", "sgx" or "generic"
	// (device.ByName vocabulary). Defaults to "vc4".
	Device string `json:"device,omitempty"`
	// Kernel is the workload: "sum", "sgemm" or "saxpy". Empty when
	// Pipeline is set.
	Kernel string `json:"kernel"`
	// Pipeline names a prebuilt vision pipeline graph to run instead of a
	// single kernel: "sepconv", "adaptive", "histeq", "sobel" or "pyramid"
	// (the internal/pipeline vision suite). The source image is A (or the
	// Seed-derived matrix); B is not used. The worker compiles the graph
	// once per (pipeline, n) key and keeps the plan warm, so repeated jobs
	// re-upload the source and rerun the planned — and, after the first
	// run primes the timing cache, fused — schedule.
	Pipeline string `json:"pipeline,omitempty"`
	// N is the matrix dimension (N×N inputs and output).
	N int `json:"n"`
	// Block is the sgemm block size; defaults to 16. Must divide N, and
	// sgemm additionally needs a power-of-two N (the kernel's addressing
	// arithmetic assumes it).
	Block int `json:"block,omitempty"`
	// Alpha is the saxpy scale factor, in [0,1] (the encoded domain).
	Alpha float64 `json:"alpha,omitempty"`
	// Seed generates the inputs when A/B are absent: A gets seed, B gets
	// seed+1, values uniform in [0, 0.999) like the benchmark harness.
	Seed int64 `json:"seed,omitempty"`
	// A and B are optional explicit inputs, flat row-major length N*N,
	// values in [0,1) (the unit encoding range).
	A []float64 `json:"a,omitempty"`
	B []float64 `json:"b,omitempty"`
}

// StageResult is one pipeline stage's share of a job's virtual time, in
// execution order.
type StageResult struct {
	Name        string      `json:"name"`
	VirtualTime timing.Time `json:"virtual_time_ps"`
}

// Result is one completed job.
type Result struct {
	// Out is the output matrix, flat row-major length N*N. Equality
	// against a local core run is bit-exact through the HTTP daemon in
	// either result encoding: the ResultMediaType frame carries the raw
	// float64 bit patterns, and Go's JSON encoding round-trips float64
	// exactly. For pipeline jobs it is the graph's final declared output,
	// whose dimension N may be smaller than the job's (the pyramid's last
	// level).
	Out []float64 `json:"out"`
	N   int       `json:"n"`
	// Device, Kernel and Pipeline echo the placement.
	Device   string `json:"device"`
	Kernel   string `json:"kernel"`
	Pipeline string `json:"pipeline,omitempty"`
	// Stages breaks a pipeline job's virtual time down per stage; nil for
	// kernel jobs.
	Stages []StageResult `json:"stages,omitempty"`
	// PassesFused counts stage dispatches this run avoided through the
	// planner's proof-gated fusion (0 on kernel jobs, on unfused runs and
	// on a warm plan's first, stat-priming run). ReadbacksElided counts
	// internal graph edges whose intermediate stayed resident on-device
	// instead of round-tripping through host floats.
	PassesFused     int `json:"passes_fused,omitempty"`
	ReadbacksElided int `json:"readbacks_elided,omitempty"`
	// VirtualTime is the simulated device time the job consumed
	// (picoseconds, timing.Time); HostNanos is wall-clock execution time on
	// the worker, excluding queueing.
	VirtualTime timing.Time `json:"virtual_time_ps"`
	HostNanos   int64       `json:"host_nanos"`
	// BatchSize is the size of the coalesced batch this job ran in (1 when
	// it ran alone); BatchIndex is the job's position in it.
	BatchSize  int `json:"batch_size"`
	BatchIndex int `json:"batch_index"`
}

// kernelKey identifies the compiled-runner compatibility class: jobs with
// equal keys can share one warm runner (and therefore one batch). For
// pipeline jobs the class is the (graph, size) pair — one compiled plan.
type kernelKey struct {
	kernel   string
	pipeline string
	n        int
	block    int
	alpha    float64
}

func (k kernelKey) String() string {
	if k.pipeline != "" {
		return fmt.Sprintf("pipeline:%s/n=%d", k.pipeline, k.n)
	}
	if k.kernel == "sgemm" {
		return fmt.Sprintf("sgemm/n=%d/b=%d", k.n, k.block)
	}
	if k.kernel == "saxpy" {
		// Alpha is part of the compatibility class (it is baked into the
		// warm runner), so it must be part of the affinity key: two alphas
		// are two runners, and the ring should be free to place them on
		// different shards.
		return fmt.Sprintf("saxpy/n=%d/a=%g", k.n, k.alpha)
	}
	return fmt.Sprintf("%s/n=%d", k.kernel, k.n)
}

// Key validates the job (value copy — the caller's Params are not
// mutated) and returns its affinity key: the same string that names the
// warm-runner compatibility class inside the scheduler ("sum/n=64",
// "sgemm/n=256/b=16", "pipeline:sepconv/n=128", ...). The shard router
// consistent-hashes this key so every job of one class lands on the same
// replica, keeping that replica's compiled programs, warm runners and
// resident tensors hot for the class.
func (p Params) Key() (string, error) {
	k, err := p.normalize()
	if err != nil {
		return "", err
	}
	return k.String(), nil
}

// pipelineNames is the vision-pipeline vocabulary the service admits,
// matching the prebuilt graphs in internal/pipeline.
var pipelineNames = map[string]bool{
	"sepconv": true, "adaptive": true, "histeq": true, "sobel": true, "pyramid": true,
}

// normalize validates p, applies defaults and returns its batching key.
func (p *Params) normalize() (kernelKey, error) {
	if p.Device == "" {
		p.Device = "vc4"
	}
	if p.N <= 0 || p.N > MaxJobSize {
		return kernelKey{}, fmt.Errorf("serve: n=%d outside [1, %d]", p.N, MaxJobSize)
	}
	for _, in := range [][]float64{p.A, p.B} {
		if in == nil {
			continue
		}
		if len(in) != p.N*p.N {
			return kernelKey{}, fmt.Errorf("serve: inline input length %d, want %d", len(in), p.N*p.N)
		}
		for _, v := range in {
			// Written so NaN fails the range check.
			if !(v >= 0 && v < 1) {
				return kernelKey{}, fmt.Errorf("serve: inline input value %g outside [0,1)", v)
			}
		}
	}
	if p.Pipeline != "" {
		if p.Kernel != "" {
			return kernelKey{}, fmt.Errorf("serve: job names both kernel %q and pipeline %q", p.Kernel, p.Pipeline)
		}
		if !pipelineNames[p.Pipeline] {
			return kernelKey{}, fmt.Errorf("serve: unknown pipeline %q (want sepconv, adaptive, histeq, sobel or pyramid)", p.Pipeline)
		}
		if p.B != nil {
			return kernelKey{}, fmt.Errorf("serve: pipeline jobs take one input (a or seed), got b")
		}
		if p.Pipeline == "pyramid" && (p.N < 8 || p.N&(p.N-1) != 0) {
			return kernelKey{}, fmt.Errorf("serve: pyramid needs a power-of-two n >= 8, got %d", p.N)
		}
		return kernelKey{pipeline: p.Pipeline, n: p.N}, nil
	}
	key := kernelKey{kernel: p.Kernel, n: p.N}
	switch p.Kernel {
	case "sum":
	case "sgemm":
		if p.Block == 0 {
			p.Block = 16
		}
		if p.N&(p.N-1) != 0 {
			return kernelKey{}, fmt.Errorf("serve: sgemm needs a power-of-two n, got %d", p.N)
		}
		if p.Block < 1 || p.N%p.Block != 0 {
			return kernelKey{}, fmt.Errorf("serve: sgemm block %d must divide n=%d", p.Block, p.N)
		}
		key.block = p.Block
	case "saxpy":
		// Written so NaN fails the range check: a NaN alpha would also key
		// a runner that never matches itself and churns the warm cache.
		if !(p.Alpha >= 0 && p.Alpha <= 1) {
			return kernelKey{}, fmt.Errorf("serve: saxpy alpha %g outside [0,1]", p.Alpha)
		}
		key.alpha = p.Alpha
	default:
		return kernelKey{}, fmt.Errorf("serve: unknown kernel %q (want sum, sgemm or saxpy)", p.Kernel)
	}
	return key, nil
}

// Inputs materialises the job's input matrices: the inline ones when
// present, otherwise deterministic Seed-derived values. Exported so tests
// and clients can reproduce a job's exact inputs.
func (p *Params) Inputs() (a, b *codec.Matrix) {
	a = inputMatrix(p.N, p.A, p.Seed)
	b = inputMatrix(p.N, p.B, p.Seed+1)
	return a, b
}

// Source materialises a pipeline job's source image: the inline A when
// present, otherwise the deterministic Seed-derived matrix (the same
// derivation a kernel job's first input uses).
func (p *Params) Source() *codec.Matrix {
	return inputMatrix(p.N, p.A, p.Seed)
}

func inputMatrix(n int, inline []float64, seed int64) *codec.Matrix {
	m := codec.NewMatrix(n, n)
	if inline != nil {
		copy(m.Data, inline)
		return m
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range m.Data {
		m.Data[i] = rng.Float64() * 0.999
	}
	return m
}
