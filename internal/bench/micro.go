package bench

// Shader-execution microbenchmarks: how fast the reference interpreter
// simulates one shader invocation with the optimisation passes on and off.
// These isolate the pass speedup from the full pipeline figures — passes
// are cycle-neutral by contract, so their entire effect is host time, and
// this is where it is visible. Each measurement also cross-checks the
// contract: the virtual-cycle total of every configuration of a kernel
// must be bit-identical.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/glsl"
	"gles2gpgpu/internal/kernels"
	"gles2gpgpu/internal/shader"
	"gles2gpgpu/internal/shader/analysis"
)

// MicroResult is one shader-execution microbenchmark measurement.
type MicroResult struct {
	Kernel      string
	Passes      bool
	Invocations int
	HostMS      float64
	// Cycles is the virtual-cycle total over all invocations — identical
	// for every configuration of the same kernel, by the pass contract.
	Cycles int64
}

// Name is the stable figure label, e.g. "micro/sum/interp/passes=on".
func (r MicroResult) Name() string {
	p := "off"
	if r.Passes {
		p = "on"
	}
	return fmt.Sprintf("micro/%s/interp/passes=%s", r.Kernel, p)
}

// microKernels builds the measured shader set.
func microKernels() ([]struct {
	name string
	src  string
}, error) {
	o := kernels.DefaultOptions
	sgemm, err := kernels.SgemmPass(256, 8, o)
	if err != nil {
		return nil, err
	}
	reduce, err := kernels.Reduce2x2(64, o)
	if err != nil {
		return nil, err
	}
	return []struct {
		name string
		src  string
	}{
		{"sum", kernels.Sum(o)},
		{"saxpy", kernels.Saxpy(o)},
		{"conv3x3", kernels.Conv3x3(64, 64, o)},
		{"jacobi", kernels.Jacobi(64, 64, o)},
		{"sgemm-b8", sgemm},
		{"reduce", reduce},
	}, nil
}

// Micro measures every kernel with the passes off and on, running
// invocations invocations per configuration (0 means 4096). ctx cancels
// between kernels.
func Micro(ctx context.Context, invocations int) ([]MicroResult, error) {
	if invocations <= 0 {
		invocations = 4096
	}
	kset, err := microKernels()
	if err != nil {
		return nil, err
	}
	cost := device.Generic().CostModel
	var out []MicroResult
	for _, k := range kset {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cs, err := glsl.Frontend(k.src, glsl.CompileOptions{Stage: glsl.StageFragment})
		if err != nil {
			return nil, fmt.Errorf("micro %s: %w", k.name, err)
		}
		p, err := shader.Compile(cs)
		if err != nil {
			return nil, fmt.Errorf("micro %s: %w", k.name, err)
		}
		if o := analysis.Optimize(p); o != nil {
			if err := p.SetOptimized(o); err != nil {
				return nil, fmt.Errorf("micro %s: %w", k.name, err)
			}
		}
		var cycles int64
		first := true
		for _, passes := range []bool{false, true} {
			run := shader.Executor(p, &cost, passes)
			env := newMicroEnv(p)
			start := time.Now()
			for i := 0; i < invocations; i++ {
				env.Reset()
				if err := run(env); err != nil {
					return nil, fmt.Errorf("micro %s: %w", k.name, err)
				}
			}
			host := time.Since(start)
			total := env.Cycles // Reset keeps the running total
			if first {
				cycles, first = total, false
			} else if total != cycles {
				return nil, fmt.Errorf("micro %s: passes=%v: %d cycles, want %d (pass contract broken)",
					k.name, passes, total, cycles)
			}
			out = append(out, MicroResult{
				Kernel: k.name, Passes: passes,
				Invocations: invocations,
				HostMS:      float64(host.Microseconds()) / 1000,
				Cycles:      total,
			})
		}
	}
	return out, nil
}

// newMicroEnv fills an environment with fixed pseudo-random register
// contents and a deterministic hash sampler, so every configuration
// simulates exactly the same invocation stream.
func newMicroEnv(p *shader.Program) *shader.Env {
	env := shader.NewEnv(p)
	rng := rand.New(rand.NewSource(42))
	for i := range env.Uniforms {
		for c := 0; c < 4; c++ {
			env.Uniforms[i][c] = rng.Float32()
		}
	}
	for i := range env.Inputs {
		for c := 0; c < 4; c++ {
			env.Inputs[i][c] = rng.Float32()
		}
	}
	env.Sample = func(idx int, u, v float32) shader.Vec4 {
		h := math.Float32bits(u)*2654435761 + math.Float32bits(v)*40503 + uint32(idx)*97
		return shader.Vec4{
			float32(h&0xff) / 255,
			float32((h>>8)&0xff) / 255,
			float32((h>>16)&0xff) / 255,
			float32((h>>24)&0xff) / 255,
		}
	}
	return env
}
