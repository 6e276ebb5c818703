package gles

// Composite program installation for the pipeline planner: ComposePrograms
// splices the fragment programs of already-linked stage programs into one
// fused program (shader.ComposeFragments) and registers it as a linked
// Program object, without charging API-call costs — the fused program is a
// host-side execution artefact, not a GL object the modelled application
// created. The planner drives it only in functional-only mode; the timing
// model always sees the original unfused call sequence.

import (
	"fmt"

	"gles2gpgpu/internal/shader"
)

// ComposeStage names one stage of a composition: a linked program and, per
// fragment sampler slot, the index of the earlier stage whose colour output
// feeds it (-1 for an external texture input).
type ComposeStage struct {
	Program    uint32
	SlotSource []int
}

// ComposePrograms builds and installs a fused program from a chain of
// linked stage programs sharing one vertex shader. It returns the new
// program name and the surviving external sampler slots in merged order
// (shader.FusedSampler.Name is the sampler uniform to bind). The caller is
// responsible for fusion eligibility; this only enforces structure.
func (c *Context) ComposePrograms(stages []ComposeStage) (uint32, []shader.FusedSampler, error) {
	if len(stages) < 2 {
		return 0, nil, fmt.Errorf("compose: need at least 2 stages, have %d", len(stages))
	}
	var vp *shader.Program
	var vsUniformCount int
	fstages := make([]shader.FuseStage, len(stages))
	for i, st := range stages {
		p := c.programs[st.Program]
		if p == nil || !p.linked {
			return 0, nil, fmt.Errorf("compose: stage %d: program %d is not linked", i, st.Program)
		}
		if i == 0 {
			vp = p.vsProg
			vsUniformCount = len(p.vsProg.Uniforms)
		} else if p.vsProg != vp {
			return 0, nil, fmt.Errorf("compose: stage %d has a different vertex shader", i)
		}
		if vsUniformCount > 0 {
			// Per-stage vertex uniform values cannot be merged into one
			// vertex pass; the engine's fullscreen-quad VS has none.
			return 0, nil, fmt.Errorf("compose: vertex shader has uniforms")
		}
		fstages[i] = shader.FuseStage{Prog: p.fsProg, SlotSource: st.SlotSource}
	}

	fp, samplers, err := shader.ComposeFragments(fstages)
	if err != nil {
		return 0, nil, err
	}
	if err := fp.CheckLimits(c.prof.Limits); err != nil {
		return 0, nil, err
	}

	np := &Program{name: c.genName()}
	if err := np.link(vp, fp); err != nil {
		return 0, nil, fmt.Errorf("compose: fused %w", err)
	}
	c.programs[np.name] = np
	return np.name, samplers, nil
}

// ProgramFS returns the compiled fragment program of a linked program, for
// the planner's fusion-eligibility analysis. Nil when the name is unknown
// or unlinked.
func (c *Context) ProgramFS(name uint32) *shader.Program {
	p := c.programs[name]
	if p == nil || !p.linked {
		return nil
	}
	return p.fsProg
}
