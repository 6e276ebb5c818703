package analysis

import (
	"fmt"

	"gles2gpgpu/internal/shader"
)

// Mask-safety proof.
//
// The lane engine executes a branchy program by sweeping its segments
// (basic blocks) in program order with a per-lane resume index; that is
// only sound when program order is a topological order of the instruction
// graph, i.e. every control edge goes forward. The executor probes this
// itself (shader.LaneFallbackAt), but the analysis derives the same
// verdict independently from the CFG so the lint can cross-check the two:
// a disagreement means either the proof or the engine gate is wrong, and
// is reported loudly.

// MaskSafety returns the analysis-side lane verdict for c's program:
// pc < 0 when every control edge goes forward (the program is maskable as
// far as control flow is concerned), otherwise the first offending
// instruction and why. Opcode-level support is the executor's concern and
// is not checked here.
func MaskSafety(c *CFG) (pc int, reason string) {
	p := c.Prog
	for i := range p.Insts {
		for _, s := range p.InstSuccs(i) {
			if s <= i {
				return i, fmt.Sprintf("backward control edge to pc %d", s)
			}
		}
		// A BR/BRZ whose target is negative has no successor edge in the
		// CFG but is still a backward (or stuck) transfer for the engine.
		in := &p.Insts[i]
		if (in.Op == shader.OpBR || in.Op == shader.OpBRZ) && int(in.Target) <= i {
			return i, fmt.Sprintf("backward control edge to pc %d", int(in.Target))
		}
	}
	if _, ok := c.Acyclic(); !ok {
		// Unreachable when every edge goes forward; kept as a belt-and-
		// braces check of the CFG construction itself.
		return 0, "control-flow graph has a cycle"
	}
	return -1, ""
}
