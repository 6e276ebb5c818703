// Package pipeline runs DAGs of GPGPU kernels on a core.Engine: stages
// name fragment kernels, inputs reference other stages' outputs or
// external tensors, and the planner topologically orders the passes,
// keeps every intermediate resident on-device as an RGBA8 texture (no
// float↔RGBA8 readback between stages), and — where the shader analysis
// framework proves both sides of an edge elementwise with 1:1 texel
// footprints — fuses adjacent passes into one composed program
// (shader.ComposeFragments).
//
// Fusion is bit-identical to the unfused plan in both directions of the
// simulation: output bytes match because the composed program applies the
// exact RGBA8 round trip (OpQUANT) where the unfused plan stored and
// re-sampled a texel, and virtual-time figures match because a fused run
// still replays the unfused GL call sequence against the timing model
// (timing-only mode) and executes the collapsed graph functionally with
// the clock stopped (functional-only mode). The win is host work — fewer
// functional passes, no intermediate encode/decode — reported by the
// PassesFused and ReadbacksElided counters, never by modelled cycles.
package pipeline

import (
	"fmt"
	"sort"
)

// Binding connects one sampler uniform of a stage to a producer: exactly
// one of Stage (an earlier stage's output) or External (a tensor supplied
// to Plan.Run) must be set.
type Binding struct {
	// Sampler is the sampler uniform name in the stage's fragment shader.
	Sampler string
	// Stage names the producing stage, or "" for an external input.
	Stage string
	// External names the externally-supplied tensor, or "".
	External string
	// WantW/WantH, when non-zero, assert the producer's width/height —
	// shape-mismatch validation across graph edges.
	WantW, WantH int
}

// Stage is one kernel pass of a graph.
type Stage struct {
	// Name identifies the stage; must be unique within the graph.
	Name string
	// Frag is the GLSL ES fragment shader source (compiled against the
	// engine's shared fullscreen-quad vertex shader).
	Frag string
	// W, H are the output dimensions (one fragment per output element).
	W, H int
	// Inputs bind the fragment shader's samplers. Every sampler the
	// shader declares must be bound exactly once.
	Inputs []Binding
	// Uniforms are float uniforms set before each dispatch; a slice of
	// length 1 is a scalar, longer slices are float arrays.
	Uniforms map[string][]float32
}

// Graph is a declarative DAG of kernel stages.
type Graph struct {
	Stages []Stage
	// Outputs names the stages whose outputs the caller reads after Run.
	// Output tensors are always materialised, fused or not.
	Outputs []string
}

// Validate checks the graph's structure without compiling anything:
// duplicate or empty names, dangling stage references, self-references and
// cycles, double-bound samplers, shape mismatches across edges, and
// missing outputs. Returned errors are descriptive and stable; Validate
// never panics on any input.
func (g *Graph) Validate() error {
	if len(g.Stages) == 0 {
		return fmt.Errorf("pipeline: graph has no stages")
	}
	idx := make(map[string]int, len(g.Stages))
	for i := range g.Stages {
		s := &g.Stages[i]
		if s.Name == "" {
			return fmt.Errorf("pipeline: stage %d has an empty name", i)
		}
		if _, dup := idx[s.Name]; dup {
			return fmt.Errorf("pipeline: duplicate stage name %q", s.Name)
		}
		idx[s.Name] = i
		if s.W <= 0 || s.H <= 0 {
			return fmt.Errorf("pipeline: stage %q has invalid size %dx%d", s.Name, s.W, s.H)
		}
		if s.Frag == "" {
			return fmt.Errorf("pipeline: stage %q has no fragment source", s.Name)
		}
		seen := map[string]bool{}
		for bi, b := range s.Inputs {
			if b.Sampler == "" {
				return fmt.Errorf("pipeline: stage %q input %d has no sampler name", s.Name, bi)
			}
			if seen[b.Sampler] {
				return fmt.Errorf("pipeline: stage %q binds sampler %q twice", s.Name, b.Sampler)
			}
			seen[b.Sampler] = true
			if (b.Stage == "") == (b.External == "") {
				return fmt.Errorf("pipeline: stage %q sampler %q must reference exactly one of a stage or an external input",
					s.Name, b.Sampler)
			}
			if b.Stage == s.Name {
				return fmt.Errorf("pipeline: stage %q samples itself", s.Name)
			}
		}
	}
	// Dangling references and shape assertions.
	for i := range g.Stages {
		s := &g.Stages[i]
		for _, b := range s.Inputs {
			if b.Stage == "" {
				continue
			}
			pi, ok := idx[b.Stage]
			if !ok {
				return fmt.Errorf("pipeline: stage %q samples unknown stage %q", s.Name, b.Stage)
			}
			p := &g.Stages[pi]
			if b.WantW != 0 && p.W != b.WantW {
				return fmt.Errorf("pipeline: stage %q expects %q to be %d wide, it is %d",
					s.Name, b.Stage, b.WantW, p.W)
			}
			if b.WantH != 0 && p.H != b.WantH {
				return fmt.Errorf("pipeline: stage %q expects %q to be %d tall, it is %d",
					s.Name, b.Stage, b.WantH, p.H)
			}
		}
	}
	if len(g.Outputs) == 0 {
		return fmt.Errorf("pipeline: graph declares no outputs")
	}
	seenOut := map[string]bool{}
	for _, o := range g.Outputs {
		if _, ok := idx[o]; !ok {
			return fmt.Errorf("pipeline: output %q names no stage", o)
		}
		if seenOut[o] {
			return fmt.Errorf("pipeline: duplicate output %q", o)
		}
		seenOut[o] = true
	}
	if _, err := g.topoOrder(idx); err != nil {
		return err
	}
	return nil
}

// topoOrder returns a deterministic topological order of stage indices
// (Kahn's algorithm, ready stages taken in declaration order), or an error
// naming a stage on a cycle.
func (g *Graph) topoOrder(idx map[string]int) ([]int, error) {
	n := len(g.Stages)
	indeg := make([]int, n)
	succs := make([][]int, n)
	for i := range g.Stages {
		for _, b := range g.Stages[i].Inputs {
			if b.Stage == "" {
				continue
			}
			pi, ok := idx[b.Stage]
			if !ok {
				return nil, fmt.Errorf("pipeline: stage %q samples unknown stage %q", g.Stages[i].Name, b.Stage)
			}
			indeg[i]++
			succs[pi] = append(succs[pi], i)
		}
	}
	ready := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		sort.Ints(ready)
		i := ready[0]
		ready = ready[1:]
		order = append(order, i)
		for _, s := range succs[i] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != n {
		for i := 0; i < n; i++ {
			if indeg[i] > 0 {
				return nil, fmt.Errorf("pipeline: cycle through stage %q", g.Stages[i].Name)
			}
		}
	}
	return order, nil
}

// stageIndex builds the name→index map (callers validate first).
func (g *Graph) stageIndex() map[string]int {
	idx := make(map[string]int, len(g.Stages))
	for i := range g.Stages {
		idx[g.Stages[i].Name] = i
	}
	return idx
}
