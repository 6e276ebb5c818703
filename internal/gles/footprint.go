package gles

// Proven sampler footprints for the coherence cache.
//
// A tile can only be cached (coherence.go) if its sampled texel region is
// known before the next draw compares it. The shader IR analysis
// (analysis.SolveFootprint) proves, per sampler slot, that the
// coordinates are affine chains over at most one input component. Given
// that proof the region is computable up front: bound the referenced
// input over the tile (gl_FragCoord from the tile rectangle, varyings by
// corner evaluation via raster.VaryingRectBounds, which widens one
// float32 ulp per side to cover interpolation rounding) and push the
// bounds through the proven chain (analysis.SlotRect, which replicates
// the sampler's NEAREST + CLAMP_TO_EDGE index arithmetic; the chain steps
// are weakly monotone so the rectangle is exact — no pad). Fetches go
// through the plain specialised sampler; nothing records them.
//
// The rectangle is a superset of the texels actually fetched, so the
// bytes.Equal elision contract only gets more conservative, never less:
// elision stays bit-identical by construction. A draw with any slot the
// proof does not cover (dependent fetches, non-affine coordinates,
// LINEAR/REPEAT sampling, a gl_FragCoord.w coordinate) skips the cache.
// A tile whose bounds fail to evaluate (non-affine 1/w, NaN varyings) is
// shaded but not cached — the same degradation as a tile whose footprint
// exceeds the input budget.

import (
	"gles2gpgpu/internal/raster"
	"gles2gpgpu/internal/shader"
	"gles2gpgpu/internal/shader/analysis"
)

// footprintFor returns the memoised footprint analysis for fp. Called on
// the draw goroutine only (workers receive the solved result).
func (c *Context) footprintFor(fp *shader.Program) *analysis.Footprint {
	if f, ok := c.footCache[fp]; ok {
		return f
	}
	cfg := analysis.BuildCFG(fp)
	f := analysis.SolveFootprint(cfg, analysis.SolveDefUse(cfg), analysis.SolveSCCP(cfg))
	if c.footCache == nil {
		c.footCache = make(map[*shader.Program]*analysis.Footprint)
	}
	c.footCache[fp] = f
	return f
}

// cohProvable reports whether every sampler slot of this draw has a
// footprint cohTileRects can compute: the slot must be proven, every
// referenced input must be boundable over a tile, and the bound texture
// must use the NEAREST + CLAMP_TO_EDGE configuration whose index
// arithmetic SlotRect replicates. Slots with no reachable fetches (or an
// incomplete texture, which samples constant opaque black) have an empty
// footprint.
func cohProvable(f *analysis.Footprint, p *Program, samplers []*Texture) bool {
	for si, t := range samplers {
		if si >= len(f.Slots) || !f.Slots[si].Provable {
			return false
		}
		sf := &f.Slots[si]
		if len(sf.Coords) == 0 || !texComplete(t) {
			continue // fetches nothing / constant opaque black
		}
		if t.magFilter == LINEAR || t.wrapS == REPEAT || t.wrapT == REPEAT {
			return false // SlotRect models only the fast path
		}
		for ci := range sf.Coords {
			pair := &sf.Coords[ci]
			for _, tc := range [2]*analysis.TexCoord{&pair.U, &pair.V} {
				if tc.HasInput && tc.InReg == p.fragCoordReg && tc.InComp == 3 {
					return false // 1/w is not exposed to the static bound
				}
			}
		}
	}
	return true
}

// cohTileRects evaluates the proven footprint of every slot for one tile.
// ok=false when any slot's bounds cannot be established for this tile;
// the caller then skips caching the tile.
func cohTileRects(f *analysis.Footprint, p *Program, uniforms [][4]float32, setups []raster.Triangle, tile *tileBin, samplers []*Texture, rects []cohRect) bool {
	inBounds := func(reg, comp int) (float32, float32, bool) {
		if reg == p.fragCoordReg {
			switch comp {
			case 0:
				return float32(tile.x0) + 0.5, float32(tile.x1) + 0.5, true
			case 1:
				return float32(tile.y0) + 0.5, float32(tile.y1) + 0.5, true
			case 2:
				return 0.5, 0.5, true
			}
			return 0, 0, false
		}
		if reg >= 0 && reg < len(p.varyingMap) && p.varyingMap[reg] >= 0 {
			first := true
			var lo, hi float32
			for _, ti := range tile.tris {
				l, h, ok := setups[ti].VaryingRectBounds(reg, comp, tile.x0, tile.y0, tile.x1, tile.y1)
				if !ok {
					return 0, 0, false
				}
				if first || l < lo {
					lo = l
				}
				if first || h > hi {
					hi = h
				}
				first = false
			}
			if first {
				return 0, 0, false
			}
			return lo, hi, true
		}
		// Unmapped inputs (varyings the vertex shader does not write,
		// gl_PointCoord and gl_FrontFacing in the triangle path) are left
		// at zero by draw setup.
		return 0, 0, true
	}
	for si := range rects {
		rects[si] = cohRect{x0: 1, y0: 1, x1: 0, y1: 0}
		if len(f.Slots[si].Coords) == 0 || !texComplete(samplers[si]) {
			continue // provably fetches no texels
		}
		t := samplers[si]
		r, ok := f.SlotRect(si, uniforms, inBounds, t.W, t.H)
		if !ok {
			return false
		}
		rects[si] = cohRect{x0: r.X0, y0: r.Y0, x1: r.X1, y1: r.Y1}
	}
	return true
}

// fsUniforms4 exposes the fragment uniform registers as the plain slice
// type the analysis evaluator takes. Built once per draw, not per tile.
func (p *Program) fsUniforms4() [][4]float32 {
	u := make([][4]float32, len(p.fsUniforms))
	for i := range p.fsUniforms {
		u[i] = [4]float32(p.fsUniforms[i])
	}
	return u
}
