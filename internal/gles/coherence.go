package gles

// Cross-iteration tile coherence.
//
// The paper's kernels are iterative: jacobi, the reduction ladder, and the
// state-stepping workloads in examples/ redraw the same full-screen quad
// every iteration, with only the sampled ping-pong texture changing between
// draws. On real mobile silicon inter-frame coherence is the dominant
// time/energy lever ("Dynamic Sampling Rate", Anglada et al.); this file
// gives the host engine the same lever. Between draws that share a
// signature (program, uniform bits, geometry, viewport origin, colour
// mask, per-slot sampler configuration), each 32×32 tile remembers
//
//   - the exact texel rectangle it fetched from every sampler slot (the
//     footprint, recorded by tracking samplers that repeat the index
//     arithmetic of sampler.go bit for bit),
//   - a snapshot of the texel bytes under those footprints,
//   - the output bytes it produced, with a coverage bitmap of the pixels
//     it actually wrote,
//   - its share of the draw measurement (fragments, cycles, tex fetches).
//
// On the next matching draw, a tile whose current footprint bytes equal
// the snapshot is ELIDED: the cached output bytes are copied to the
// covered pixels instead of re-shading. This is bit-identical by
// construction, not by hashing: the comparison is bytes.Equal over the
// exact inputs, and with blending off an eligible fragment program is a
// deterministic function of (uniforms, varyings, fragcoord, sampled
// texels) — equal recorded inputs replay the identical fetch sequence and
// therefore the identical outputs. Dependent fetches are covered by
// induction: the first fetch is determined by the compared state, so its
// coordinates (and thus every later fetch) fall inside the recorded
// footprint, which is a conservative union rectangle.
//
// The cache key deliberately EXCLUDES texture object identity: ping-pong
// stepping alternates two texture objects (iteration i samples A and
// writes B, iteration i+1 samples B and writes A), and keying on names
// would force a stride-2 comparison that never converges while the two
// generations still differ. Content equality is exactly what the footprint
// compare establishes, and with blending off the target's prior content
// never feeds the shaded bytes, so two draws that agree on everything the
// signature captures plus the footprint bytes produce the same covered
// pixels no matter which texture objects are bound.
//
// Modelled-device time is deliberately untouched: an elided tile
// contributes its cached fragments/cycles/texFetches to the draw stats, so
// Cycles, TexFetches and every virtual-time figure are bit-identical with
// coherence on or off — only host wall-clock time changes. Non-elided
// tiles shade in lane batches exactly like the tiled path (tiled.go). The
// win is reported by the CoherenceElided/CoherenceShaded counters
// (Context.CoherenceStats).

import (
	"bytes"
	"math"
	"sync/atomic"

	"gles2gpgpu/internal/raster"
	"gles2gpgpu/internal/shader"
)

// cohBudgetBytes caps the total retained snapshot bytes per context;
// beyond it the least-recently-used draw entries are evicted.
const cohBudgetBytes = 192 << 20

// cohMaxEntryBytes caps one draw entry's estimated output-snapshot size;
// draws too large to cache shade normally without touching the cache.
const cohMaxEntryBytes = 64 << 20

// cohMaxTileInBytes caps one tile's input snapshots. Tiles whose sampled
// footprint exceeds it (sgemm-style row×column reads spanning the whole
// matrix) are not cached: their inputs change wholesale every pass anyway,
// and snapshotting them would dwarf the pixels they produce.
const cohMaxTileInBytes = 64 << 10

// cohKey identifies a cacheable draw stream: one program drawing to one
// target size. Texture identity is deliberately absent (see file comment).
type cohKey struct {
	program uint32
	w, h    int
}

// cohRect is an inclusive texel rectangle; x0 > x1 means empty.
type cohRect struct {
	x0, y0, x1, y1 int
}

func (r *cohRect) empty() bool { return r.x0 > r.x1 }

// cohTile is the cached result of shading one tile.
type cohTile struct {
	// Clipped target-pixel rectangle of the tile (inclusive).
	cx0, cy0, cx1, cy1 int

	foot []cohRect // per sampler slot: texel footprint fetched while shading
	in   [][]byte  // per slot: texel bytes under foot at shade time
	out  []byte    // target bytes of the clipped rect after shading

	cover []uint64 // bitmap over the clipped rect: pixels the tile wrote
	full  bool     // every pixel of the clipped rect is covered

	fragments, cycles, texFetches int64 // the tile's share of the draw stats

	bytes int // retained size, for the budget
}

// cohDraw is one cache entry: the signature its tiles were shaded under
// plus the per-tile results, keyed by tile origin (stable across draws —
// binTiles anchors tiles at global multiples of the tile size).
type cohDraw struct {
	fs    *shader.Program
	sig   []byte
	tiles map[[2]int]*cohTile
	bytes int
	gen   uint64 // last draw generation that used the entry (for eviction)
}

// CoherenceStats returns the cumulative cross-iteration coherence counters:
// tiles elided (output bytes replayed from the cache) and tiles shaded
// through the coherent path. Modelled cycles are identical either way; the
// ratio is the host-work win.
func (c *Context) CoherenceStats() (elided, shaded int64) {
	return c.cohElided, c.cohShaded
}

// CoherenceStaticSlots returns how many sampler slots (summed over
// coherent draws) took their footprint from the static IR proof instead
// of dynamic fetch tracking.
func (c *Context) CoherenceStaticSlots() int64 { return c.cohStatic }

// coherentEligible gates the coherent tile path. Blending is excluded
// because a blended fragment reads the destination pixel, making the
// output depend on target history the signature does not capture; sampling
// the render target itself (undefined in GLES2) is excluded for the same
// reason. Callers only ask for fast-path draws, whose liveness proofs make
// fragments independent of each other and of pooled LaneEnv state, so a
// tile-order walk is byte-identical to the serial walk.
func (c *Context) coherentEligible(tgt renderTarget, samplers []*Texture) bool {
	if !c.coherence || c.timingOnly || c.blendEnabled {
		return false
	}
	for _, t := range samplers {
		if t != nil && tgt.tex != nil && t == tgt.tex {
			return false
		}
	}
	return true
}

// cohSignature serialises the draw state a cached tile's output depends on
// beyond its sampled texel bytes: program identity and uniform bits,
// viewport origin, colour mask, the set-up triangle fingerprints, and each
// sampler slot's completeness/dimensions/filter/wrap configuration —
// everything except texture object identity and texel contents.
func (c *Context) cohSignature(p *Program, setups []raster.Triangle, vpX, vpY int, samplers []*Texture) []byte {
	sig := make([]byte, 0, 160+len(setups)*232+len(samplers)*28)
	p32 := func(u uint32) {
		sig = append(sig, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	p32(p.name)
	p32(uint32(len(p.fsUniforms)))
	for _, u := range p.fsUniforms {
		for ci := 0; ci < 4; ci++ {
			p32(math.Float32bits(u[ci]))
		}
	}
	p32(uint32(int32(vpX)))
	p32(uint32(int32(vpY)))
	var m uint32
	for ci, on := range c.colorMask {
		if on {
			m |= 1 << ci
		}
	}
	p32(m)
	p32(uint32(len(setups)))
	for i := range setups {
		sig = setups[i].AppendFingerprint(sig)
	}
	p32(uint32(len(samplers)))
	for _, t := range samplers {
		if !texComplete(t) {
			p32(0xffffffff) // samples constant opaque black
			continue
		}
		p32(uint32(t.W))
		p32(uint32(t.H))
		p32(uint32(t.minFilter))
		p32(uint32(t.magFilter))
		p32(uint32(t.wrapS))
		p32(uint32(t.wrapT))
	}
	return sig
}

// cohTracker records, per sampler slot, the union texel rectangle fetched
// while shading one tile. One tracker per worker; reset at tile start.
type cohTracker struct {
	foot []cohRect
}

func (tr *cohTracker) reset() {
	for i := range tr.foot {
		tr.foot[i] = cohRect{x0: 1, y0: 1, x1: 0, y1: 0}
	}
}

func (tr *cohTracker) add(slot, ix, iy int) {
	f := &tr.foot[slot]
	if f.empty() {
		*f = cohRect{x0: ix, y0: iy, x1: ix, y1: iy}
		return
	}
	if ix < f.x0 {
		f.x0 = ix
	} else if ix > f.x1 {
		f.x1 = ix
	}
	if iy < f.y0 {
		f.y0 = iy
	} else if iy > f.y1 {
		f.y1 = iy
	}
}

func (tr *cohTracker) addRect(slot, x0, y0, x1, y1 int) {
	f := &tr.foot[slot]
	if f.empty() {
		*f = cohRect{x0: x0, y0: y0, x1: x1, y1: y1}
		return
	}
	if x0 < f.x0 {
		f.x0 = x0
	}
	if y0 < f.y0 {
		f.y0 = y0
	}
	if x1 > f.x1 {
		f.x1 = x1
	}
	if y1 > f.y1 {
		f.y1 = y1
	}
}

func cohClampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// trackedSampler wraps one slot's fetch with footprint recording. Every
// branch repeats the exact index arithmetic of specializeSampler /
// sampleNearest / sampleBilinear / texel — including the clamp order and
// the implementation-defined int(NaN) conversion feeding the same clamps —
// so the recorded rectangle is precisely the set of texels the value path
// reads and the returned value is bit-identical to the untracked sampler.
func trackedSampler(t *Texture, tr *cohTracker, slot int) shader.TexFunc {
	if !texComplete(t) {
		return opaqueBlack
	}
	if t.magFilter != LINEAR && t.wrapS != REPEAT && t.wrapT != REPEAT {
		// Mirror of the NEAREST + CLAMP_TO_EDGE fast path in sampler.go.
		data := t.data
		w, h := t.W, t.H
		fw, fh := float32(w), float32(h)
		return func(u, v float32) shader.Vec4 {
			if u < 0 {
				u = 0
			} else if u > 1 {
				u = 1
			}
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			ix := int(u * fw)
			iy := int(v * fh)
			if ix < 0 {
				ix = 0
			} else if ix >= w {
				ix = w - 1
			}
			if iy < 0 {
				iy = 0
			} else if iy >= h {
				iy = h - 1
			}
			tr.add(slot, ix, iy)
			off := (iy*w + ix) * 4
			return shader.Vec4{
				byteToF32[data[off]],
				byteToF32[data[off+1]],
				byteToF32[data[off+2]],
				byteToF32[data[off+3]],
			}
		}
	}
	// LINEAR filtering or REPEAT wrapping: record the texel() indices the
	// reference path will clamp to, then return the reference sample.
	return func(u, v float32) shader.Vec4 {
		uw := wrapCoord(t.wrapS, u)
		vw := wrapCoord(t.wrapT, v)
		if t.magFilter == LINEAR {
			fx := uw*float32(t.W) - 0.5
			fy := vw*float32(t.H) - 0.5
			ix, iy := int(floorf(fx)), int(floorf(fy))
			tr.addRect(slot,
				cohClampIdx(ix, t.W), cohClampIdx(iy, t.H),
				cohClampIdx(ix+1, t.W), cohClampIdx(iy+1, t.H))
		} else {
			ix := int(uw * float32(t.W))
			iy := int(vw * float32(t.H))
			tr.add(slot, cohClampIdx(ix, t.W), cohClampIdx(iy, t.H))
		}
		return shader.Vec4(sampleTexture(t, u, v))
	}
}

// cohInputsEqual reports whether the texel bytes under a cached tile's
// footprints still equal the snapshot taken when it was shaded. The
// signature match guarantees the textures bound now have the same
// dimensions and sampling configuration the footprints were recorded
// under, so the row indexing is in range by construction.
func cohInputsEqual(ct *cohTile, samplers []*Texture) bool {
	for si := range ct.foot {
		fr := &ct.foot[si]
		if fr.empty() {
			continue
		}
		t := samplers[si]
		snap := ct.in[si]
		rw := (fr.x1 - fr.x0 + 1) * 4
		for row := fr.y0; row <= fr.y1; row++ {
			src := (row*t.W + fr.x0) * 4
			so := (row - fr.y0) * rw
			if !bytes.Equal(snap[so:so+rw], t.data[src:src+rw]) {
				return false
			}
		}
	}
	return true
}

// cohApply replays a cached tile: the snapshot bytes of every covered
// pixel's masked channels are copied into the target. This matches what
// re-shading would write — covered pixels got every masked channel stored
// through writePixel (blend off), uncovered pixels and unmasked channels
// were never touched by the draw on either path.
func cohApply(ct *cohTile, tgt renderTarget, mask [4]bool) {
	if ct.out == nil {
		return
	}
	cw := ct.cx1 - ct.cx0 + 1
	if ct.full && mask[0] && mask[1] && mask[2] && mask[3] {
		for row := ct.cy0; row <= ct.cy1; row++ {
			dst := (row*tgt.w + ct.cx0) * 4
			so := (row - ct.cy0) * cw * 4
			copy(tgt.pixels[dst:dst+cw*4], ct.out[so:so+cw*4])
		}
		return
	}
	for row := ct.cy0; row <= ct.cy1; row++ {
		base := (row - ct.cy0) * cw
		dstRow := (row*tgt.w + ct.cx0) * 4
		for col := 0; col < cw; col++ {
			bit := base + col
			if ct.cover[bit>>6]&(1<<uint(bit&63)) == 0 {
				continue
			}
			so := bit * 4
			do := dstRow + col*4
			for ci := 0; ci < 4; ci++ {
				if mask[ci] {
					tgt.pixels[do+ci] = ct.out[so+ci]
				}
			}
		}
	}
}

func cohTileBytes(ct *cohTile) int {
	n := len(ct.out) + len(ct.cover)*8 + len(ct.foot)*32 + 96
	for _, in := range ct.in {
		n += len(in)
	}
	return n
}

// shadeTrianglesCoherent is the coherent tile path: it bins the draw into
// tiles, elides tiles whose cached inputs are unchanged since the last
// matching draw, shades the rest in lane batches with footprint-tracking
// samplers (in parallel when workers are configured), and refreshes the
// cache. Returns ok=false when the draw is too large to cache; the caller
// falls through to the plain tiled path.
func (c *Context) shadeTrianglesCoherent(p *Program, lf *laneForm, tgt renderTarget, setups []raster.Triangle, vpX, vpY int, samplers []*Texture) (drawStats, bool) {
	tiles := binTiles(setups)
	if len(tiles) == 0 {
		return drawStats{}, false
	}
	if len(tiles)*(tileSize*tileSize*4+256) > cohMaxEntryBytes {
		return drawStats{}, false
	}

	fp := p.fsProg
	key := cohKey{program: c.current, w: tgt.w, h: tgt.h}
	sig := c.cohSignature(p, setups, vpX, vpY, samplers)
	c.cohGen++
	entry := c.cohCache[key]
	match := entry != nil && entry.fs == fp && bytes.Equal(entry.sig, sig)
	if !match {
		if entry != nil {
			c.cohBytes -= entry.bytes
		}
		entry = &cohDraw{
			fs: fp, sig: sig,
			tiles: make(map[[2]int]*cohTile, len(tiles)),
		}
		c.cohCache[key] = entry
	}
	entry.gen = c.cohGen

	st := drawStats{valid: true}
	mask := c.colorMask

	// Partition the tiles: replay the ones whose inputs are unchanged,
	// shade the rest.
	shadeIdx := make([]int, 0, len(tiles))
	for ti := range tiles {
		tile := &tiles[ti]
		if match {
			if ct := entry.tiles[[2]int{tile.x0, tile.y0}]; ct != nil && cohInputsEqual(ct, samplers) {
				cohApply(ct, tgt, mask)
				st.fragments += ct.fragments
				st.cycles += ct.cycles
				st.texFetches += ct.texFetches
				c.cohElided++
				continue
			}
		}
		shadeIdx = append(shadeIdx, ti)
	}
	c.cohShaded += int64(len(shadeIdx))
	if len(shadeIdx) == 0 {
		c.cohEvict(key, entry)
		return st, true
	}

	// Static footprints: slots whose fetch region the IR analysis proved
	// shade without per-fetch tracking; the proven per-tile rectangle is
	// snapshotted instead (see footprint.go).
	foot := c.footprintFor(fp)
	static := cohStaticSlots(foot, p, samplers)
	hasStatic := false
	for _, s := range static {
		if s {
			hasStatic = true
		}
	}
	if hasStatic {
		for _, s := range static {
			if s {
				c.cohStatic++
			}
		}
	}
	uniforms4 := p.fsUniforms4()

	nw := c.workers
	if nw > len(shadeIdx) {
		nw = len(shadeIdx)
	}
	if nw < 1 {
		nw = 1
	}

	// Per-tile results staged by shade-list position; the entry map is only
	// touched on the draw goroutine after the join. Workers write disjoint
	// tile pixel rects (every pixel belongs to exactly one tile) and read
	// shared setups/textures, so the only synchronisation needed is the
	// claim counter.
	newTiles := make([]*cohTile, len(shadeIdx))
	var next int64
	worker := func() {
		tr := &cohTracker{foot: make([]cohRect, len(samplers))}
		tfns := make([]shader.TexFunc, len(samplers))
		for i, t := range samplers {
			if static[i] {
				// Proven slot: the plain specialised sampler (bit-identical
				// values, no recording); the footprint comes from the proof.
				tfns[i] = specializeSampler(t)
			} else {
				tfns[i] = trackedSampler(t, tr, i)
			}
		}
		var staticRects []cohRect
		if hasStatic {
			staticRects = make([]cohRect, len(samplers))
		}
		sample := func(idx int, u, v float32) shader.Vec4 {
			if idx < 0 || idx >= len(tfns) {
				return shader.Vec4{0, 0, 0, 1}
			}
			return tfns[idx](u, v)
		}
		ls := c.newLaneShader(lf, p, tgt, tfns, sample)

		for {
			wi := int(atomic.AddInt64(&next, 1)) - 1
			if wi >= len(shadeIdx) {
				break
			}
			tile := &tiles[shadeIdx[wi]]
			ct := &cohTile{}
			cx0, cy0 := tile.x0+vpX, tile.y0+vpY
			cx1, cy1 := tile.x1+vpX, tile.y1+vpY
			if cx0 < 0 {
				cx0 = 0
			}
			if cy0 < 0 {
				cy0 = 0
			}
			if cx1 > tgt.w-1 {
				cx1 = tgt.w - 1
			}
			if cy1 > tgt.h-1 {
				cy1 = tgt.h - 1
			}
			clipped := cx0 <= cx1 && cy0 <= cy1
			cw := 0
			if clipped {
				cw = cx1 - cx0 + 1
				ct.cover = make([]uint64, (cw*(cy1-cy0+1)+63)/64)
			}
			ct.cx0, ct.cy0, ct.cx1, ct.cy1 = cx0, cy0, cx1, cy1
			tr.reset()

			pf, pc, pt := ls.frags, ls.env.Cycles, ls.env.TexFetches
			// Cover bits are set at scatter time via the write hook, not at
			// gather: a masked batch can discard individual lanes, and a
			// discarded fragment's pixel must stay uncovered.
			ls.onWrite = func(px, py int32) {
				bit := (int(py)-cy0)*cw + (int(px) - cx0)
				ct.cover[bit>>6] |= 1 << uint(bit&63)
			}
			for _, tri := range tile.tris {
				setups[tri].RasterizeRect(tile.x0, tile.y0, tile.x1, tile.y1, func(x, y int, fc shader.Vec4, varyings []shader.Vec4) {
					px, py := vpX+x, vpY+y
					if px < 0 || py < 0 || px >= tgt.w || py >= tgt.h {
						return
					}
					ls.add(px, py, fc, varyings)
				})
			}
			// Flush at the tile boundary so the per-tile stat attribution is
			// exact. Scatter order stays gather order and fragments are
			// independent (liveness proofs), so bytes are unchanged;
			// counters are per-fragment sums, indifferent to batching.
			ls.flush()
			ls.onWrite = nil
			ct.fragments = ls.frags - pf
			ct.cycles = ls.env.Cycles - pc
			ct.texFetches = ls.env.TexFetches - pt

			if clipped {
				ch := cy1 - cy0 + 1
				// Output snapshot: only this worker writes this tile's pixel
				// rect, so the copy races with nothing.
				ct.out = make([]byte, cw*ch*4)
				for row := 0; row < ch; row++ {
					src := ((cy0+row)*tgt.w + cx0) * 4
					copy(ct.out[row*cw*4:(row+1)*cw*4], tgt.pixels[src:src+cw*4])
				}
				npix := cw * ch
				ct.full = true
				for bit := 0; bit < npix; bit++ {
					if ct.cover[bit>>6]&(1<<uint(bit&63)) == 0 {
						ct.full = false
						break
					}
				}
			}

			// Input snapshots under the recorded footprints. Copied, not
			// aliased: TexImage2D orphans its data slice but
			// CopyTexImage2D reuses backing arrays.
			ct.foot = make([]cohRect, len(samplers))
			copy(ct.foot, tr.foot)
			if hasStatic {
				if cohStaticRects(foot, static, p, uniforms4, setups, tile, samplers, staticRects) {
					for si := range static {
						if static[si] {
							ct.foot[si] = staticRects[si]
						}
					}
				} else {
					// The tile's fetch region cannot be bounded statically
					// (non-affine 1/w or a NaN bound): keep the shading
					// result but leave the tile uncached, like a tile over
					// the input budget.
					ct.in = nil
					ct.out = nil
					ct.cover = nil
					newTiles[wi] = ct
					continue
				}
			}
			ct.in = make([][]byte, len(samplers))
			inBytes := 0
			for si := range ct.foot {
				fr := &ct.foot[si]
				if fr.empty() {
					continue
				}
				inBytes += (fr.x1 - fr.x0 + 1) * (fr.y1 - fr.y0 + 1) * 4
			}
			if inBytes > cohMaxTileInBytes {
				// Footprint too large to cache (whole-matrix reads): keep
				// the shading result but drop the tile from the cache.
				ct.in = nil
				ct.out = nil
				ct.cover = nil
				newTiles[wi] = ct
				continue
			}
			for si := range ct.foot {
				fr := &ct.foot[si]
				if fr.empty() {
					continue
				}
				t := samplers[si]
				rw := (fr.x1 - fr.x0 + 1) * 4
				snap := make([]byte, rw*(fr.y1-fr.y0+1))
				for row := fr.y0; row <= fr.y1; row++ {
					src := (row*t.W + fr.x0) * 4
					copy(snap[(row-fr.y0)*rw:(row-fr.y0+1)*rw], t.data[src:src+rw])
				}
				ct.in[si] = snap
			}
			ct.bytes = cohTileBytes(ct)
			newTiles[wi] = ct
		}

		ls.finish() // per-tile stats already attributed; recycle the env
	}

	if nw >= 2 {
		fns := make([]func(), nw)
		for i := range fns {
			fns[i] = worker
		}
		c.ensurePool().run(fns)
	} else {
		worker()
	}

	// Merge stats and refresh the cache entry (serial again).
	for wi, ct := range newTiles {
		st.fragments += ct.fragments
		st.cycles += ct.cycles
		st.texFetches += ct.texFetches
		tile := &tiles[shadeIdx[wi]]
		k := [2]int{tile.x0, tile.y0}
		if old := entry.tiles[k]; old != nil {
			entry.bytes -= old.bytes
			c.cohBytes -= old.bytes
			delete(entry.tiles, k)
		}
		if ct.out == nil && ct.cover == nil {
			continue // over the per-tile input budget: not cached
		}
		entry.tiles[k] = ct
		entry.bytes += ct.bytes
		c.cohBytes += ct.bytes
	}
	c.cohEvict(key, entry)
	return st, true
}

// cohEvict enforces the retained-byte budget: oldest-generation entries go
// first, the entry just used is dropped last (and only when it alone
// exceeds the budget).
func (c *Context) cohEvict(key cohKey, entry *cohDraw) {
	for c.cohBytes > cohBudgetBytes {
		var oldestKey cohKey
		var oldest *cohDraw
		for k, e := range c.cohCache {
			if e == entry {
				continue
			}
			if oldest == nil || e.gen < oldest.gen {
				oldest, oldestKey = e, k
			}
		}
		if oldest == nil {
			break
		}
		c.cohBytes -= oldest.bytes
		delete(c.cohCache, oldestKey)
	}
	if entry.bytes > cohBudgetBytes {
		c.cohBytes -= entry.bytes
		delete(c.cohCache, key)
	}
}
