package bench

import (
	"context"
	"math"
	"reflect"
	"testing"

	"gles2gpgpu/internal/core"
	"gles2gpgpu/internal/raster"
)

// measureOn runs measureAll at the paper options with setup applied to
// every engine build makes. It returns the Results and, per functional
// calibration, the output bits. With repeat, each calibration then runs
// one more iteration on the same inputs and its output bits follow: a
// figure calibrates on a fresh engine with a single iteration, where tile
// coherence has nothing to replay, and the repeat is where unchanged
// tiles replay. The repeat does not change the Results.
func measureOn(t *testing.T, setup func(*core.Engine), repeat bool) ([]measured, [][2][]uint64) {
	t.Helper()
	var outs [][2][]uint64
	bits := func(r core.Runner) []uint64 {
		m, err := r.Result()
		if err != nil {
			t.Fatalf("calibration output: %v", err)
		}
		b := make([]uint64, len(m.Data))
		for i, v := range m.Data {
			b[i] = math.Float64bits(v)
		}
		return b
	}
	built = setup
	calibrated = func(r core.Runner, _ calibration) {
		out := [2][]uint64{bits(r)}
		if repeat {
			if err := r.RunOnce(context.Background()); err != nil {
				t.Fatalf("repeat iteration: %v", err)
			}
			out[1] = bits(r)
		}
		outs = append(outs, out)
	}
	// The quad fast path is a process-wide switch; restore it whatever
	// setup did.
	defer func() { built, calibrated = nil, nil; raster.SetQuadFast(true) }()
	return measureAll(t, Opts{}, true), outs
}

// TestFiguresIdenticalOnReferencePaths is the oracle for the host paths no
// user can select: with tile coherence or the quad fast path off, and at
// 1 or 4 shading workers, every figure, journey
// and ablation Result equals the default run's, and so does every
// calibration output. Coherence off also compares the output of a
// repeated iteration, the only place tiles replay; the other paths skip
// the repeat, which triples a run's cost.
func TestFiguresIdenticalOnReferencePaths(t *testing.T) {
	want, wantOuts := measureOn(t, nil, true)
	for _, p := range []struct {
		name   string
		setup  func(*core.Engine)
		repeat bool
	}{
		{"coherence off", func(e *core.Engine) { e.GL().SetCoherence(false) }, true},
		{"quad fast path off", func(*core.Engine) { raster.SetQuadFast(false) }, false},
		{"workers 1", func(e *core.Engine) { e.GL().SetWorkers(1) }, false},
		{"workers 4", func(e *core.Engine) { e.GL().SetWorkers(4) }, false},
	} {
		got, gotOuts := measureOn(t, p.setup, p.repeat)
		if len(got) != len(want) || len(gotOuts) != len(wantOuts) {
			t.Fatalf("%s: %d Results and %d calibrations, default %d and %d",
				p.name, len(got), len(gotOuts), len(want), len(wantOuts))
		}
		for i := range want {
			if got[i].res != want[i].res {
				t.Errorf("%s: %s:\ngot     %+v\ndefault %+v", p.name, want[i].config, got[i].res, want[i].res)
			}
		}
		for i, w := range wantOuts {
			if !p.repeat {
				w[1] = nil
			}
			if !reflect.DeepEqual(gotOuts[i], w) {
				t.Errorf("%s: calibration %d: output bits differ from the default run's", p.name, i)
			}
		}
	}
}
