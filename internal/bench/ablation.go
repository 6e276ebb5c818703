package bench

import (
	"context"
	"fmt"

	"gles2gpgpu/internal/core"
	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/timing"
)

// Ablations isolate the contribution of each micro-architectural mechanism
// in the timing model by switching it off and re-running a probe workload.
// They answer "how much of the paper's effect does THIS mechanism carry?"
// and are referenced from DESIGN.md §5.

// AblationRow is one mechanism toggle.
type AblationRow struct {
	Name     string
	Baseline timing.Time // mechanism as modelled
	Ablated  timing.Time // mechanism disabled/perturbed
	// Impact = Ablated/Baseline: how much slower (or faster) the workload
	// gets without the mechanism.
	Impact float64
}

// AblationResult is the full ablation study for one device.
type AblationResult struct {
	Device string
	Rows   []AblationRow
}

// Ablation runs the mechanism study on the given profile, perturbing only
// copies of it.
func Ablation(ctx context.Context, dev *device.Profile, o Opts) (*AblationResult, error) {
	res := &AblationResult{Device: dev.Name}
	memo := calibrations{}

	run := func(p *device.Profile, cfg core.Config, spec Spec) (timing.Time, error) {
		cfg.Device = p
		r, err := measure(ctx, memo, cfg, spec, o)
		if err != nil {
			return 0, err
		}
		return r.PerIteration, nil
	}
	clone := func() *device.Profile {
		c := *dev
		return &c
	}
	texCfg := core.Config{Swap: core.SwapNone, Target: core.TargetTexture, UseVBO: true}
	fbCfg := core.Config{Swap: core.SwapNone, Target: core.TargetFramebuffer, UseVBO: true}
	sgemm := Spec{Workload: WSgemm, Block: 16}
	sum := Spec{Workload: WSum}

	add := func(name string, base, abl timing.Time) {
		res.Rows = append(res.Rows, AblationRow{
			Name: name, Baseline: base, Ablated: abl,
			Impact: float64(abl) / float64(base),
		})
	}

	// 1. Deferred frame overlap: without it the CPU waits for every
	// frame, killing the pipelining that makes no-swap sum fast.
	base, err := run(dev, texCfg, sum)
	if err != nil {
		return nil, fmt.Errorf("ablation deferred: %w", err)
	}
	p := clone()
	p.Deferred = false
	abl, err := run(p, texCfg, sum)
	if err != nil {
		return nil, err
	}
	add("deferred frame overlap (sum)", base, abl)

	// 2. Copy streaming: the DMA engine transferring tiles behind the
	// renderer is what keeps framebuffer rendering viable for sgemm.
	base, err = run(dev, fbCfg, sgemm)
	if err != nil {
		return nil, err
	}
	p = clone()
	p.CopyStreamsOnOverwrite = false
	p.CopyEngine.Latency += p.CopyEngine.TransferTime(0) // keep latency; disable streaming below
	// Disabling streaming entirely: model as overwrite-style scheduling by
	// forcing the reuse path.
	fbReuse := fbCfg
	fbReuse.ReuseOutputTextures = true
	abl, err = run(p, fbReuse, sgemm)
	if err != nil {
		return nil, err
	}
	add("copy streaming behind renderer (sgemm, FB)", base, abl)

	// 3. Target invalidation (glClear): without it every pass reloads the
	// previous frame's tiles from memory and carries a frame dependency.
	base, err = run(dev, texCfg, sum)
	if err != nil {
		return nil, err
	}
	noClear := texCfg
	noClear.InvalidateTarget = new(bool) // false
	abl, err = run(dev, noClear, sum)
	if err != nil {
		return nil, err
	}
	add("glClear target invalidation (sum)", base, abl)

	// 4. Deferred-flush penalty: the bubble cost is what texture-rendered
	// multi-pass sgemm pays per pass.
	base, err = run(dev, texCfg, sgemm)
	if err != nil {
		return nil, err
	}
	p = clone()
	p.FlushCost = 0
	abl, err = run(p, texCfg, sgemm)
	if err != nil {
		return nil, err
	}
	add("dependency flush penalty (sgemm, texture)", base, abl)

	// 5. Driver queue depth: restricting the CPU to lockstep submission.
	base, err = run(dev, texCfg, sum)
	if err != nil {
		return nil, err
	}
	p = clone()
	p.QueueDepth = 1
	abl, err = run(p, texCfg, sum)
	if err != nil {
		return nil, err
	}
	add("frame queue depth 2 -> 1 (sum)", base, abl)

	// 6. Tile size: quarter-resolution tiles quadruple the tile count
	// (binning/bookkeeping pressure shows up in stats; time shifts only
	// via per-tile constants, so this row doubles as a regression check
	// that tile size does not distort bandwidth accounting).
	base, err = run(dev, texCfg, sgemm)
	if err != nil {
		return nil, err
	}
	p = clone()
	p.TileW /= 2
	p.TileH /= 2
	abl, err = run(p, texCfg, sgemm)
	if err != nil {
		return nil, err
	}
	add("tile size halved (sgemm)", base, abl)

	return res, nil
}

// Table renders the study.
func (r *AblationResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Ablation study: %s", r.Device),
		Note:    "impact = time(without mechanism)/time(with); >1 means the mechanism helps",
		Columns: []string{"mechanism", "with", "without", "impact"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, fmtMs(row.Baseline), fmtMs(row.Ablated), fmtSpeedup(row.Impact))
	}
	return t
}
