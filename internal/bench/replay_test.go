package bench

import (
	"context"
	"fmt"
	"testing"

	"gles2gpgpu/internal/core"
)

// measured is one Measure call as observe reports it; config only labels
// failures (it prints pointers, which differ between runs).
type measured struct {
	config string
	cfg    core.Config
	spec   Spec
	res    Result
}

// measureAll runs every figure, the journey and the ablation the way
// glesbench does, and returns each Measure result in call order.
func measureAll(t *testing.T, o Opts, extrapolating bool) []measured {
	t.Helper()
	var out []measured
	extrapolate = extrapolating
	observe = func(cfg core.Config, spec Spec, r Result) {
		r.HostTime = 0 // host wall clock, the one field allowed to differ
		out = append(out, measured{fmt.Sprintf("%s %+v %+v", cfg.Device.Name, spec, cfg), cfg, spec, r})
	}
	defer func() { extrapolate, observe = true, nil }()

	ctx := context.Background()
	devs := Devices()
	var errs []error
	keep := func(_ any, err error) { errs = append(errs, err) }
	keep(Fig3(ctx, devs, o))
	keep(FigVBO(ctx, devs, o))
	keep(Fig4a(ctx, devs, o))
	keep(Fig4b(ctx, devs, o))
	keep(Fig5(ctx, devs, core.TargetTexture, o))
	keep(Fig5(ctx, devs, core.TargetFramebuffer, o))
	for _, dev := range devs {
		for _, spec := range []Spec{{Workload: WSum}, {Workload: WSgemm, Block: 16}} {
			keep(Incremental(ctx, dev, spec, o))
		}
		keep(Ablation(ctx, dev, o))
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestExtrapolationMatchesFullReplay is the oracle for Measure's
// steady-state skip: every configuration the figures, the journey and the
// ablation reach yields exactly the full replay's PerIteration and Stats.
// The paper-scale options prove the period inside the warm-ups; the test
// options, with fewer warm-ups, also prove it after them.
func TestExtrapolationMatchesFullReplay(t *testing.T) {
	for _, o := range []Opts{{}, testOpts()} {
		fast, full := measureAll(t, o, true), measureAll(t, o, false)
		if len(fast) != len(full) {
			t.Fatalf("opts %+v: %d measurements extrapolated, %d replayed", o, len(fast), len(full))
		}
		for i := range full {
			if fast[i].res != full[i].res {
				t.Errorf("opts %+v: %s:\nextrapolated %+v\nfull replay  %+v", o, full[i].config, fast[i].res, full[i].res)
			}
		}
	}
}
