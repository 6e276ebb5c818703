package bench

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"gles2gpgpu/internal/core"
	"gles2gpgpu/internal/shader"
)

// timingOnlyFields reads each Config field keyOf resets, as the engine
// sees it (a nil InvalidateTarget means true).
var timingOnlyFields = map[string]func(core.Config) any{
	"Device":              func(c core.Config) any { return c.Device },
	"Swap":                func(c core.Config) any { return c.Swap },
	"Target":              func(c core.Config) any { return c.Target },
	"UseVBO":              func(c core.Config) any { return c.UseVBO },
	"VBOUsage":            func(c core.Config) any { return c.VBOUsage },
	"StreamInputs":        func(c core.Config) any { return c.StreamInputs },
	"ReuseInputTextures":  func(c core.Config) any { return c.ReuseInputTextures },
	"ReuseOutputTextures": func(c core.Config) any { return c.ReuseOutputTextures },
	"InvalidateTarget":    func(c core.Config) any { return c.InvalidateTarget == nil || *c.InvalidateTarget },
	"UseDiscardExtension": func(c core.Config) any { return c.UseDiscardExtension },
}

// checkResetsListed fails if key, keyOf's copy of cfg, differs from cfg in
// a field timingOnlyFields does not list: the oracle would not cover it.
func checkResetsListed(t *testing.T, cfg, key core.Config) {
	t.Helper()
	v, k := reflect.ValueOf(cfg), reflect.ValueOf(key)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if _, listed := timingOnlyFields[name]; !listed && !reflect.DeepEqual(v.Field(i).Interface(), k.Field(i).Interface()) {
			t.Errorf("keyOf resets %s, which timingOnlyFields does not list", name)
		}
	}
}

// calibOutput is one functional calibration as the calibrated hook sees
// it: the decoded output's bit patterns and the counts.
type calibOutput struct {
	bits []uint64
	cal  calibration
}

// freshCalibration runs Measure with the calibrated hook set and returns
// the Result, with HostTime cleared, and the calibration Measure ran.
func freshCalibration(t *testing.T, cfg core.Config, spec Spec, o Opts) (Result, calibOutput) {
	t.Helper()
	var got *calibOutput
	calibrated = func(r core.Runner, c calibration) {
		m, err := r.Result()
		if err != nil {
			t.Fatalf("calibration output: %v", err)
		}
		bits := make([]uint64, len(m.Data))
		for i, v := range m.Data {
			bits[i] = math.Float64bits(v)
		}
		c.hostTime = 0
		got = &calibOutput{bits, c}
	}
	defer func() { calibrated = nil }()
	res, err := Measure(context.Background(), cfg, spec, o)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("Measure ran no calibration")
	}
	res.HostTime = 0
	return res, *got
}

// TestCalibrationReuseMatchesFreshMeasure is the oracle for the figures'
// calibration reuse. Every Measure call the figures, the journey and the
// ablation make must return exactly what a fresh Measure of the same
// configuration returns. And every configuration sharing a calibration
// key must calibrate to byte-identical output and equal counts: that is
// the proof that the fields keyOf resets shape timing only. Each of those
// fields must differ somewhere inside a key's group, or the proof does
// not cover it; no figure enables UseDiscardExtension, so every group
// also calibrates its first member with it.
func TestCalibrationReuseMatchesFreshMeasure(t *testing.T) {
	for _, o := range []Opts{{}, testOpts()} {
		type group struct {
			first core.Config
			out   calibOutput
		}
		groups := map[calibKey]*group{}
		varied := map[string]bool{}
		join := func(label string, cfg core.Config, spec Spec, out calibOutput) {
			key := keyOf(cfg, spec, o.withDefaults())
			g, ok := groups[key]
			if !ok {
				groups[key] = &group{cfg, out}
				return
			}
			for name, field := range timingOnlyFields {
				if field(cfg) != field(g.first) {
					varied[name] = true
				}
			}
			if !reflect.DeepEqual(out, g.out) {
				t.Errorf("opts %+v: %s calibrates differently from %+v, which shares its key", o, label, g.first)
			}
		}
		all := measureAll(t, o, true)
		for _, m := range all {
			fresh, out := freshCalibration(t, m.cfg, m.spec, o)
			if fresh != m.res {
				t.Errorf("opts %+v: %s:\nreused calibration %+v\nfresh Measure      %+v", o, m.config, m.res, fresh)
			}
			join(m.config, m.cfg, m.spec, out)
			checkResetsListed(t, m.cfg, keyOf(m.cfg, m.spec, o.withDefaults()).cfg)
		}
		for key, g := range groups {
			cfg := g.first
			cfg.UseDiscardExtension = true
			_, out := freshCalibration(t, cfg, key.spec, o)
			join("its EXT_discard_framebuffer variant", cfg, key.spec, out)
		}
		for name := range timingOnlyFields {
			if !varied[name] {
				t.Errorf("opts %+v: no two configurations sharing a key differ in %s", o, name)
			}
		}
		t.Logf("opts %+v: %d Measure calls, %d calibration keys", o, len(all), len(groups))
	}
}

// TestFigureCalibrationCounts pins how many functional calibrations the
// figures run: one per distinct key within a figure call, none carried
// from one call to the next, and one per exported Measure call.
func TestFigureCalibrationCounts(t *testing.T) {
	var calibrations, measures int
	calibrated = func(core.Runner, calibration) { calibrations++ }
	observe = func(core.Config, Spec, Result) { measures++ }
	defer func() { calibrated, observe = nil, nil }()
	count := func(name string, wantCalib, wantMeasures int) {
		t.Helper()
		if calibrations != wantCalib || measures != wantMeasures {
			t.Errorf("%s: %d calibrations for %d Measure calls, want %d for %d",
				name, calibrations, measures, wantCalib, wantMeasures)
		}
		calibrations, measures = 0, 0
	}

	ctx := context.Background()
	if _, err := Fig3(ctx, Devices(), Opts{}); err != nil {
		t.Fatal(err)
	}
	count("Fig3", 4, 16)
	for call := 1; call <= 2; call++ {
		r, err := Fig4b(ctx, Devices(), Opts{})
		if err != nil {
			t.Fatal(err)
		}
		count("Fig4b", 5, 20)
		for _, dev := range []string{"SGX", "VCore"} {
			if got := r.CompileFail[dev]; !reflect.DeepEqual(got, []int{32, 64}) {
				t.Errorf("Fig4b call %d: %s CompileFail = %v, want [32 64]", call, dev, got)
			}
		}
	}
	cfg := bestPractices(Devices()[0])
	for i := 0; i < 2; i++ {
		if _, err := Measure(ctx, cfg, Spec{Workload: WSum}, Opts{}); err != nil {
			t.Fatal(err)
		}
	}
	count("Measure", 2, 2)
}

// TestSharedCalibrationKeepsDeviceLimits shares one memo between a device
// and a copy whose Limits reject the kernel. The copy's Measure reuses the
// first device's calibration, since the key holds no device, yet still
// fails: the paper-size timing build compiles under the copy's own Limits.
func TestSharedCalibrationKeepsDeviceLimits(t *testing.T) {
	var runs int
	calibrated = func(core.Runner, calibration) { runs++ }
	defer func() { calibrated = nil }()
	ctx, o, spec := context.Background(), testOpts(), Spec{Workload: WSum}
	memo := calibrations{}

	dev := Devices()[0]
	if _, err := measure(ctx, memo, bestPractices(dev), spec, o); err != nil {
		t.Fatal(err)
	}
	strict := *dev
	strict.Limits.MaxInstructions = 8
	cfg := bestPractices(&strict)
	if _, shared := memo[keyOf(cfg, spec, o.withDefaults())]; !shared || len(memo) != 1 {
		t.Fatalf("the strict copy does not share the stored calibration (%d keys)", len(memo))
	}
	_, err := measure(ctx, memo, cfg, spec, o)
	var le *shader.LimitError
	if !errors.As(err, &le) || le.What != "instructions" {
		t.Errorf("strict copy: err = %v, want the instruction limit's error", err)
	}
	if runs != 1 {
		t.Errorf("%d calibrations, want 1 (the strict copy reuses the first)", runs)
	}
}
