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
//   - the texel rectangle every sampler slot can fetch over the tile (the
//     footprint, computed from the IR proof before the tile is
//     snapshotted; see footprint.go),
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
// texels). The proven footprint is a superset of every texel the tile's
// fragments fetch, so equal bytes under it mean equal fetch results and
// therefore the identical outputs. A draw with a slot the proof cannot
// bound (a dependent fetch, non-affine coordinates, LINEAR or REPEAT
// sampling) is not eligible and shades with no cache at all.
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
// coherence on or off — only host wall-clock time changes. There is one
// tile walk (shadeTriangles, tiled.go); on an eligible draw a cohRecorder
// hooks into it to replay unchanged tiles, record the shaded ones and
// commit them after the join. The win is reported by the
// CoherenceElided/CoherenceShaded counters (Context.CoherenceStats).

import (
	"bytes"
	"math"

	"gles2gpgpu/internal/raster"
	"gles2gpgpu/internal/shader"
	"gles2gpgpu/internal/shader/analysis"
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
// by a coherence-eligible draw. Modelled cycles are identical either way; the
// ratio is the host-work win.
func (c *Context) CoherenceStats() (elided, shaded int64) {
	return c.cohElided, c.cohShaded
}

// coherentEligible gates the coherent tile path. Blending is excluded
// because a blended fragment reads the destination pixel, making the
// output depend on target history the signature does not capture; sampling
// the render target itself (undefined in GLES2) is excluded for the same
// reason. Every sampler slot must have a proven footprint (cohProvable):
// that rectangle is what a tile's input snapshot covers. Callers only ask
// for fast-path draws, whose liveness proofs make fragments independent
// of each other and of pooled LaneEnv state, so a tile-order walk is
// byte-identical to the serial walk.
func (c *Context) coherentEligible(p *Program, tgt renderTarget, samplers []*Texture) bool {
	if !c.coherence || c.timingOnly || c.blendEnabled {
		return false
	}
	for _, t := range samplers {
		if t != nil && tgt.tex != nil && t == tgt.tex {
			return false
		}
	}
	return cohProvable(c.footprintFor(p.fsProg), p, samplers)
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

// cohRecorder ties one eligible draw's tile walk (shadeTriangles) to its
// cache entry. The draw goroutine replays the unchanged tiles (cohReplay)
// and commits the shaded ones after the join (commit); in between, each
// worker opens and closes the tiles it claims. Workers write disjoint
// tile pixel rects (every pixel belongs to exactly one tile) and their
// own slots of shaded, so the entry map is touched only by the draw
// goroutine.
type cohRecorder struct {
	c        *Context
	key      cohKey
	entry    *cohDraw
	foot     *analysis.Footprint
	p        *Program
	uniforms [][4]float32
	setups   []raster.Triangle
	tgt      renderTarget
	vpX, vpY int
	samplers []*Texture

	tiles  []tileBin  // the walk's work list: tiles left to shade
	shaded []*cohTile // by work-list position; nil for a tile left uncached
}

// cohReplay starts the coherent part of an eligible draw: it finds (or
// replaces) the draw's cache entry, replays every tile whose inputs are
// unchanged since the last matching draw, adding its cached share to st,
// and returns the recorder with the tiles left to shade. A draw too large
// to cache gets a nil recorder and all its tiles back.
func (c *Context) cohReplay(p *Program, tgt renderTarget, setups []raster.Triangle, tiles []tileBin, vpX, vpY int, samplers []*Texture, st *drawStats) (*cohRecorder, []tileBin) {
	if len(tiles) == 0 || len(tiles)*(tileSize*tileSize*4+256) > cohMaxEntryBytes {
		return nil, tiles
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

	shade := make([]tileBin, 0, len(tiles))
	for ti := range tiles {
		tile := &tiles[ti]
		if match {
			if ct := entry.tiles[[2]int{tile.x0, tile.y0}]; ct != nil && cohInputsEqual(ct, samplers) {
				cohApply(ct, tgt, c.colorMask)
				st.fragments += ct.fragments
				st.cycles += ct.cycles
				st.texFetches += ct.texFetches
				c.cohElided++
				continue
			}
		}
		shade = append(shade, *tile)
	}
	c.cohShaded += int64(len(shade))
	return &cohRecorder{
		c: c, key: key, entry: entry,
		foot: c.footprintFor(fp), p: p, uniforms: p.fsUniforms4(),
		setups: setups, tgt: tgt, vpX: vpX, vpY: vpY, samplers: samplers,
		tiles: shade, shaded: make([]*cohTile, len(shade)),
	}, shade
}

// open decides whether work-list tile ti is recorded and, if so, starts
// recording it. A tile that is clipped away, whose footprint cannot be
// bounded (non-affine 1/w, a NaN bound) or whose inputs exceed
// cohMaxTileInBytes (whole-matrix reads) is shaded unrecorded: open
// returns nil and the entry drops the tile at commit. A recorded tile
// holds the worker's running stat totals until close turns them into
// deltas.
func (r *cohRecorder) open(ls *laneShader, ti int) *cohTile {
	tile := &r.tiles[ti]
	cx0, cy0 := max(tile.x0+r.vpX, 0), max(tile.y0+r.vpY, 0)
	cx1, cy1 := min(tile.x1+r.vpX, r.tgt.w-1), min(tile.y1+r.vpY, r.tgt.h-1)
	if cx0 > cx1 || cy0 > cy1 {
		return nil
	}
	foot := make([]cohRect, len(r.samplers))
	if !cohTileRects(r.foot, r.p, r.uniforms, r.setups, tile, r.samplers, foot) {
		return nil
	}
	inBytes := 0
	for si := range foot {
		if fr := &foot[si]; !fr.empty() {
			inBytes += (fr.x1 - fr.x0 + 1) * (fr.y1 - fr.y0 + 1) * 4
		}
	}
	if inBytes > cohMaxTileInBytes {
		return nil
	}

	// The batch so far belongs to earlier, unrecorded tiles.
	ls.flush()
	cw := cx1 - cx0 + 1
	ct := &cohTile{
		cx0: cx0, cy0: cy0, cx1: cx1, cy1: cy1,
		foot:  foot,
		cover: make([]uint64, (cw*(cy1-cy0+1)+63)/64),
	}
	ct.fragments, ct.cycles, ct.texFetches = ls.frags, ls.env.Cycles, ls.env.TexFetches
	// Cover bits are set at scatter time, not at gather: a masked batch
	// can discard individual lanes, and a discarded fragment's pixel must
	// stay uncovered.
	ls.onWrite = func(px, py int32) {
		bit := (int(py)-cy0)*cw + (int(px) - cx0)
		ct.cover[bit>>6] |= 1 << uint(bit&63)
	}
	return ct
}

// close ends the recorded work-list tile ti: it flushes the tile's last
// batch so the per-tile stat deltas are exact (scatter order stays gather
// order, so bytes are unchanged), then snapshots the tile's output and
// its proven inputs.
func (r *cohRecorder) close(ls *laneShader, ti int, ct *cohTile) {
	ls.flush()
	ls.onWrite = nil
	ct.fragments = ls.frags - ct.fragments
	ct.cycles = ls.env.Cycles - ct.cycles
	ct.texFetches = ls.env.TexFetches - ct.texFetches

	// Output snapshot: only this worker writes this tile's pixel rect, so
	// the copy races with nothing.
	cw, ch := ct.cx1-ct.cx0+1, ct.cy1-ct.cy0+1
	ct.out = make([]byte, cw*ch*4)
	for row := 0; row < ch; row++ {
		src := ((ct.cy0+row)*r.tgt.w + ct.cx0) * 4
		copy(ct.out[row*cw*4:(row+1)*cw*4], r.tgt.pixels[src:src+cw*4])
	}
	ct.full = true
	for bit := 0; bit < cw*ch; bit++ {
		if ct.cover[bit>>6]&(1<<uint(bit&63)) == 0 {
			ct.full = false
			break
		}
	}

	// Input snapshots under the footprints. Copied, not aliased:
	// TexImage2D orphans its data slice but CopyTexImage2D reuses backing
	// arrays.
	ct.in = make([][]byte, len(r.samplers))
	for si := range ct.foot {
		fr := &ct.foot[si]
		if fr.empty() {
			continue
		}
		t := r.samplers[si]
		rw := (fr.x1 - fr.x0 + 1) * 4
		snap := make([]byte, rw*(fr.y1-fr.y0+1))
		for row := fr.y0; row <= fr.y1; row++ {
			src := (row*t.W + fr.x0) * 4
			copy(snap[(row-fr.y0)*rw:(row-fr.y0+1)*rw], t.data[src:src+rw])
		}
		ct.in[si] = snap
	}
	ct.bytes = cohTileBytes(ct)
	r.shaded[ti] = ct
}

// commit refreshes the cache entry with the recorded tiles, dropping what
// it held for tiles left uncached, and enforces the byte budget. Runs on
// the draw goroutine after the join.
func (r *cohRecorder) commit() {
	c, entry := r.c, r.entry
	for ti, ct := range r.shaded {
		k := [2]int{r.tiles[ti].x0, r.tiles[ti].y0}
		if old := entry.tiles[k]; old != nil {
			entry.bytes -= old.bytes
			c.cohBytes -= old.bytes
			delete(entry.tiles, k)
		}
		if ct == nil {
			continue
		}
		entry.tiles[k] = ct
		entry.bytes += ct.bytes
		c.cohBytes += ct.bytes
	}
	c.cohEvict(r.key, entry)
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
