package pipeline

import (
	"bytes"
	"testing"

	"gles2gpgpu/internal/codec"
	"gles2gpgpu/internal/core"
	"gles2gpgpu/internal/timing"
)

// runReadback executes g the pre-pipeline way: each stage is its own
// dispatch, and every internal edge round-trips through host floats
// (Tensor.Read, then Upload) before the consumer samples it. It returns
// the modelled device time of iters runs and the declared outputs' bytes.
func runReadback(t *testing.T, g Graph, m *codec.Matrix, iters int) (timing.Time, []byte) {
	t.Helper()
	e := newEngine(t, baseConfig(m.Cols))
	src := uploadSrc(t, e, m)[SrcInput]
	type stageRun struct {
		spec    *Stage
		kernel  *core.Kernel
		out     *core.Tensor
		scratch []*core.Tensor // host re-upload target per internal edge
	}
	// The graph constructors list stages in dependency order.
	var runs []stageRun
	outs := map[string]*core.Tensor{}
	for i := range g.Stages {
		spec := &g.Stages[i]
		k, err := e.CachedKernel(spec.Frag)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		sr := stageRun{spec: spec, kernel: k,
			out:     e.NewTensor(spec.H, spec.W, codec.Unit),
			scratch: make([]*core.Tensor, len(spec.Inputs))}
		for bi, b := range spec.Inputs {
			if b.Stage != "" {
				prod := outs[b.Stage]
				sr.scratch[bi] = e.NewTensor(prod.Rows, prod.Cols, codec.Unit)
			}
		}
		outs[spec.Name] = sr.out
		runs = append(runs, sr)
	}
	for i := 0; i < iters; i++ {
		for _, sr := range runs {
			for name, vals := range sr.spec.Uniforms {
				if len(vals) == 1 {
					sr.kernel.SetFloat(name, vals[0])
				} else {
					sr.kernel.SetFloats(name, vals)
				}
			}
			for bi, b := range sr.spec.Inputs {
				in := src
				if b.Stage != "" {
					host, err := outs[b.Stage].Read()
					if err != nil {
						t.Fatal(err)
					}
					if err := sr.scratch[bi].Upload(host, true); err != nil {
						t.Fatal(err)
					}
					in = sr.scratch[bi]
				}
				sr.kernel.BindInput(b.Sampler, bi, in)
			}
			if err := sr.kernel.Dispatch(sr.out); err != nil {
				t.Fatalf("%s: %v", sr.spec.Name, err)
			}
		}
		if err := e.EndIteration(); err != nil {
			t.Fatal(err)
		}
	}
	e.Finish()
	vt := e.Now()
	var buf bytes.Buffer
	for _, name := range g.Outputs {
		raw, err := outs[name].ReadRaw()
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(raw)
	}
	return vt, buf.Bytes()
}

// TestResidencyBeatsReadback is the paper's data-movement thesis at
// pipeline scale: keeping intermediates on the device must cost less
// modelled time than reading each one back to the host and uploading it
// again, and must produce the same bytes. The resident plan runs unfused,
// so the comparison is residency alone. Pyramid is exempt: its stages
// shrink, so its readback traffic can cost less than the draws it
// replaces. 64² is the smallest size at which readback traffic dominates
// the per-draw costs.
func TestResidencyBeatsReadback(t *testing.T) {
	const n, iters = 64, 4
	m := randMatrix(n, n, 7)
	for _, tc := range visionCases(n) {
		if tc.name == "pyramid" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			g := tc.graph(n)
			e := newEngine(t, baseConfig(n))
			ext := uploadSrc(t, e, m)
			p, err := compile(e, g, false)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Release()
			for i := 0; i < iters; i++ {
				if _, err := p.Run(ext); err != nil {
					t.Fatal(err)
				}
			}
			e.Finish()
			resident := e.Now()
			if _, _, _, elided := p.Totals(); elided == 0 {
				t.Errorf("no readbacks elided on a %d-stage pipeline", len(g.Stages))
			}
			var got bytes.Buffer
			for _, name := range g.Outputs {
				raw, err := p.Output(name).ReadRaw()
				if err != nil {
					t.Fatal(err)
				}
				got.Write(raw)
			}

			readback, want := runReadback(t, g, m, iters)
			if !bytes.Equal(got.Bytes(), want) {
				t.Error("resident output bytes differ from the readback schedule's")
			}
			if readback <= resident {
				t.Errorf("readback virtual time %v not above resident %v", readback, resident)
			}
		})
	}
}
