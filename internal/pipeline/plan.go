package pipeline

import (
	"fmt"
	"sort"

	"gles2gpgpu/internal/codec"
	"gles2gpgpu/internal/core"
	"gles2gpgpu/internal/gles"
	"gles2gpgpu/internal/shader"
	"gles2gpgpu/internal/shader/analysis"
)

// QuadVarying is the interpolated coordinate the engine's fullscreen-quad
// vertex shader emits; elementwise proofs are relative to it.
const QuadVarying = "v_tex"

// FusionDecision records the planner's verdict for one internal graph edge
// (producer stage → consumer stage). The glslint cross-check compares these
// against the analysis findings.
type FusionDecision struct {
	Producer string
	Consumer string
	Fused    bool
	// Reason is the first gate that failed when Fused is false, "" when
	// fused. Stable tokens: "disabled", "multi-consumer", "producer-is-output",
	// "producer-not-elementwise(...)", "consumer-not-elementwise(...)",
	// "size-mismatch", "fp24-alpha", "texture-units", "compose(...)".
	Reason string
}

// planStage is one compiled stage of a plan.
type planStage struct {
	spec      *Stage
	idx       int // index into Graph.Stages
	kernel    *core.Kernel
	fs        *shader.Program
	elem      bool
	elemWhy   string
	out       *core.Tensor
	consumers int // internal edges sourcing this stage's output
	isOutput  bool
	uniforms  []string // sorted uniform names
	inputs    []resolvedBinding
}

// resolvedBinding is a Binding with the producer resolved to a plan index.
type resolvedBinding struct {
	sampler  string
	stage    int    // producer stage index, or -1
	external string // external name, or ""
}

// fusedInput maps one surviving sampler of a composed program to its source.
type fusedInput struct {
	name     string // prefixed sampler uniform in the composed program
	stage    int    // producer stage index, or -1
	external string
}

// group is one node of the collapsed graph: a maximal fused chain, or a
// single stage.
type group struct {
	stages []*planStage // chain order; len>1 means fused
	kernel *core.Kernel // composed kernel when fused, else stages[0].kernel
	inputs []fusedInput // external bindings of the composed program
}

func (g *group) fused() bool { return len(g.stages) > 1 }

// Plan is a compiled, executable pipeline graph bound to an engine.
type Plan struct {
	e         *core.Engine
	g         Graph
	order     []int
	stages    []*planStage // indexed like g.Stages
	groups    []*group     // collapsed nodes in topological order
	decisions []FusionDecision
	fuse      bool // fusion enabled; only tests compile unfused plans
	// nonReplayable names the first stage whose program's timing stats are
	// data-dependent (branches or discard), making the exact timing replay
	// unsound; "" when all stages are straight-line.
	nonReplayable string

	internalEdges int // distinct internal producer→consumer edges

	runs            int64
	fusedRuns       int64
	passesFused     int64
	readbacksElided int64
}

// Compile validates the graph, builds (or fetches cached) kernels for every
// stage, allocates resident intermediate tensors, proves fusion eligibility
// per edge with the shader analysis framework, and installs composed
// programs for every fused chain.
func Compile(e *core.Engine, g Graph) (*Plan, error) {
	return compile(e, g, true)
}

// compile is Compile with fusion selectable. Tests pass fuse=false to get
// the unfused plan, the reference fused runs must match exactly.
func compile(e *core.Engine, g Graph, fuse bool) (*Plan, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	idx := g.stageIndex()
	order, err := g.topoOrder(idx)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		e:      e,
		g:      g,
		order:  order,
		stages: make([]*planStage, len(g.Stages)),
		fuse:   fuse,
	}
	isOut := map[string]bool{}
	for _, o := range g.Outputs {
		isOut[o] = true
	}
	for i := range g.Stages {
		spec := &g.Stages[i]
		k, err := e.CachedKernel(spec.Frag)
		if err != nil {
			return nil, fmt.Errorf("pipeline: stage %q: %w", spec.Name, err)
		}
		fs := e.GL().ProgramFS(k.Program())
		if fs == nil {
			return nil, fmt.Errorf("pipeline: stage %q: program not linked", spec.Name)
		}
		st := &planStage{spec: spec, idx: i, kernel: k, fs: fs, isOutput: isOut[spec.Name]}
		// Every sampler the shader declares must be bound exactly once.
		bound := map[string]bool{}
		for _, b := range spec.Inputs {
			if _, ok := fs.LookupUniform(b.Sampler); !ok {
				return nil, fmt.Errorf("pipeline: stage %q binds sampler %q, which the shader does not declare",
					spec.Name, b.Sampler)
			}
			bound[b.Sampler] = true
			rb := resolvedBinding{sampler: b.Sampler, stage: -1, external: b.External}
			if b.Stage != "" {
				rb.stage = idx[b.Stage]
			}
			st.inputs = append(st.inputs, rb)
		}
		for _, s := range fs.Samplers {
			if !bound[s] {
				return nil, fmt.Errorf("pipeline: stage %q leaves sampler %q unbound", spec.Name, s)
			}
		}
		if len(spec.Inputs) > gles.MaxTextureUnits {
			return nil, fmt.Errorf("pipeline: stage %q binds %d inputs; the device has %d texture units",
				spec.Name, len(spec.Inputs), gles.MaxTextureUnits)
		}
		for name := range spec.Uniforms {
			st.uniforms = append(st.uniforms, name)
		}
		sort.Strings(st.uniforms)
		st.elem, st.elemWhy = analysis.Elementwise(fs, QuadVarying)
		if p.nonReplayable == "" && !straightLine(fs) {
			p.nonReplayable = spec.Name
		}
		st.out = e.NewTensor(spec.H, spec.W, codec.Range{Lo: 0, Hi: 1})
		p.stages[i] = st
	}
	edges := map[[2]int]bool{}
	for _, st := range p.stages {
		for _, rb := range st.inputs {
			if rb.stage >= 0 {
				p.stages[rb.stage].consumers++
				edges[[2]int{rb.stage, st.idx}] = true
			}
		}
	}
	p.internalEdges = len(edges)
	if err := p.buildGroups(); err != nil {
		p.Release()
		return nil, err
	}
	return p, nil
}

// buildGroups collapses the topological order into maximal fused chains.
// A consumer joins its producer's group only when every proof-gate holds;
// chains only ever extend at the tail (the producer must be the current
// tail and single-consumer), so contraction cannot create cycles.
func (p *Plan) buildGroups() error {
	groupOf := map[int]*group{} // stage idx → its group
	for _, si := range p.order {
		st := p.stages[si]
		merged := false
		for _, rb := range st.inputs {
			if rb.stage < 0 || merged {
				continue
			}
			prod := p.stages[rb.stage]
			ok, reason := p.edgeFusable(prod, st, groupOf[prod.idx])
			p.decisions = append(p.decisions, FusionDecision{
				Producer: prod.spec.Name,
				Consumer: st.spec.Name,
				Fused:    ok,
			})
			d := &p.decisions[len(p.decisions)-1]
			if !ok {
				d.Reason = reason
				continue
			}
			g := groupOf[prod.idx]
			g.stages = append(g.stages, st)
			if err := p.composeGroup(g); err != nil {
				// The tentative merge failed structural limits: undo and
				// record why.
				g.stages = g.stages[:len(g.stages)-1]
				d.Fused = false
				d.Reason = reason_compose(err)
				if cerr := p.composeGroup(g); cerr != nil {
					return cerr // re-compose of a previously valid chain
				}
				continue
			}
			groupOf[st.idx] = g
			merged = true
		}
		if !merged {
			g := &group{stages: []*planStage{st}, kernel: st.kernel}
			p.groups = append(p.groups, g)
			groupOf[st.idx] = g
		}
	}
	return nil
}

func reason_compose(err error) string { return fmt.Sprintf("compose(%v)", err) }

// straightLine reports whether a fragment program's per-draw stats are
// data-independent: no conditional branches and no discard, so fragment
// count, cycle count and fetch count depend only on the grid size.
// Unconditional branches (the joins left by function inlining) execute
// identically for every fragment and are fine.
func straightLine(fs *shader.Program) bool {
	if fs.UsesDiscard {
		return false
	}
	for _, in := range fs.Insts {
		if in.Op == shader.OpBRZ {
			return false
		}
	}
	return true
}

// edgeFusable applies the proof gates for merging consumer cons into the
// chain ending at producer prod. prodGroup is prod's current group (nil if
// prod has not been planned yet, which cannot happen in topo order).
func (p *Plan) edgeFusable(prod, cons *planStage, prodGroup *group) (bool, string) {
	if !p.fuse {
		return false, "disabled"
	}
	if p.nonReplayable != "" {
		// A fused run replays cached draw stats for every stage; a stage
		// with data-dependent stats poisons the whole plan.
		return false, fmt.Sprintf("non-replayable-stage(%s)", p.nonReplayable)
	}
	if p.e.Config().Target != core.TargetTexture {
		// Framebuffer-target dispatches copy through the back buffer with
		// machine-visible transfers that the functional-only phase cannot
		// hide; only the texture-rendering path fuses.
		return false, "framebuffer-target"
	}
	if prodGroup == nil || prodGroup.stages[len(prodGroup.stages)-1] != prod {
		// prod's output already feeds a fused consumer inside its group;
		// only the tail's output is available for further chaining.
		return false, "multi-consumer"
	}
	if prod.consumers != 1 {
		return false, "multi-consumer"
	}
	if prod.isOutput {
		// The intermediate would not be materialised in fused runs, but the
		// caller reads it.
		return false, "producer-is-output"
	}
	if p.e.Config().Kernel.Depth != codec.Depth32 {
		// fp24 kernels mask the alpha channel (ColorMask a=false), so the
		// stored texel's alpha byte is not the producer's computed alpha;
		// replacing the fetch with an in-register round trip would diverge.
		return false, "fp24-alpha"
	}
	if !prod.elem {
		return false, fmt.Sprintf("producer-not-elementwise(%s)", prod.elemWhy)
	}
	if !cons.elem {
		return false, fmt.Sprintf("consumer-not-elementwise(%s)", cons.elemWhy)
	}
	if prod.spec.W != cons.spec.W || prod.spec.H != cons.spec.H {
		return false, "size-mismatch"
	}
	// Count external inputs of the would-be group: every member's bindings
	// except internal chain edges.
	ext := 0
	for _, m := range prodGroup.stages {
		ext += len(m.inputs)
	}
	in := map[int]bool{}
	for _, m := range prodGroup.stages {
		in[m.idx] = true
	}
	for _, rb := range cons.inputs {
		if rb.stage >= 0 && in[rb.stage] {
			continue // becomes an internal QUANT edge
		}
		ext++
	}
	// Subtract the internal edges already inside the chain.
	ext -= len(prodGroup.stages) - 1
	if ext > gles.MaxTextureUnits {
		return false, "texture-units"
	}
	return true, ""
}

// composeGroup (re)builds the fused kernel for a group. Single-stage groups
// keep their original kernel.
func (p *Plan) composeGroup(g *group) error {
	if len(g.stages) < 2 {
		g.kernel = g.stages[0].kernel
		g.inputs = nil
		return nil
	}
	pos := map[int]int{} // stage idx → chain position
	for ci, m := range g.stages {
		pos[m.idx] = ci
	}
	cstages := make([]gles.ComposeStage, len(g.stages))
	var extSrc []resolvedBinding // per external slot in merged order
	for ci, m := range g.stages {
		slotSrc := make([]int, len(m.fs.Samplers))
		for slot, sname := range m.fs.Samplers {
			rb := bindingFor(m, sname)
			if rb.stage >= 0 {
				if cp, internal := pos[rb.stage]; internal {
					// Single-consumer gating means only the immediate
					// predecessor's output can be referenced in-chain.
					if cp != ci-1 {
						return fmt.Errorf("non-chain internal edge %q→%q",
							p.stages[rb.stage].spec.Name, m.spec.Name)
					}
					slotSrc[slot] = cp
					continue
				}
			}
			slotSrc[slot] = -1
			extSrc = append(extSrc, rb)
		}
		cstages[ci] = gles.ComposeStage{Program: m.kernel.Program(), SlotSource: slotSrc}
	}
	// Composed-program installation is host-side plan construction: the
	// unfused schedule never issues these calls, so they must not advance
	// the modelled clock or the fused/unfused Elapsed comparison skews.
	gl := p.e.GL()
	wasFunctional := gl.FunctionalOnly()
	gl.SetFunctionalOnly(true)
	prog, samplers, err := gl.ComposePrograms(cstages)
	var k *core.Kernel
	if err == nil {
		k, err = p.e.KernelFromProgram(prog)
	}
	gl.SetFunctionalOnly(wasFunctional)
	if err != nil {
		return err
	}
	if len(samplers) != len(extSrc) {
		return fmt.Errorf("composed program has %d external samplers, expected %d", len(samplers), len(extSrc))
	}
	g.kernel = k
	g.inputs = g.inputs[:0]
	for i, s := range samplers {
		g.inputs = append(g.inputs, fusedInput{
			name:     s.Name,
			stage:    extSrc[i].stage,
			external: extSrc[i].external,
		})
	}
	return nil
}

func bindingFor(st *planStage, sampler string) resolvedBinding {
	for _, rb := range st.inputs {
		if rb.sampler == sampler {
			return rb
		}
	}
	return resolvedBinding{stage: -1} // unreachable: Compile checks coverage
}

// Decisions returns the planner's per-edge fusion verdicts, in the order
// edges were considered.
func (p *Plan) Decisions() []FusionDecision { return p.decisions }

// FusedPairs counts the edges the planner actually fused.
func (p *Plan) FusedPairs() int {
	n := 0
	for _, g := range p.groups {
		n += len(g.stages) - 1
	}
	return n
}

// Stages returns the stage names in execution order.
func (p *Plan) Stages() []string {
	names := make([]string, 0, len(p.order))
	for _, si := range p.order {
		names = append(names, p.g.Stages[si].Name)
	}
	return names
}

// Output returns the resident tensor of a named output stage (nil if the
// name is not a declared output). Valid after Run.
func (p *Plan) Output(name string) *core.Tensor {
	for _, o := range p.g.Outputs {
		if o == name {
			return p.stages[p.g.stageIndex()[name]].out
		}
	}
	return nil
}

// SetFloat overrides a stage's scalar uniform for subsequent runs.
func (p *Plan) SetFloat(stage, name string, v float32) error {
	return p.SetFloats(stage, name, []float32{v})
}

// SetFloats overrides a stage's float uniform (scalar or array) for
// subsequent runs.
func (p *Plan) SetFloats(stage, name string, vals []float32) error {
	i, ok := p.g.stageIndex()[stage]
	if !ok {
		return fmt.Errorf("pipeline: no stage %q", stage)
	}
	st := p.stages[i]
	if st.spec.Uniforms == nil {
		st.spec.Uniforms = map[string][]float32{}
	}
	if _, had := st.spec.Uniforms[name]; !had {
		st.uniforms = append(st.uniforms, name)
		sort.Strings(st.uniforms)
	}
	st.spec.Uniforms[name] = append([]float32(nil), vals...)
	return nil
}

// Release returns all intermediate tensors to the engine's pool (or frees
// them). The plan must not be Run afterwards.
func (p *Plan) Release() {
	for _, st := range p.stages {
		if st != nil && st.out != nil {
			st.out.Release()
			st.out = nil
		}
	}
}
