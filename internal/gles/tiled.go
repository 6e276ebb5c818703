package gles

// Tile-binned fragment shading: the fast path every eligible triangle
// draw takes.
//
// The paper's platforms (VideoCore IV, PowerVR SGX) are tile-based
// deferred renderers: the hardware bins primitives into fixed-size screen
// tiles and shades tile-by-tile so the working set of framebuffer writes
// and texture reads stays on-chip. This file gives the host engine the
// same traversal. Triangles are binned once per draw into tileSize²-pixel
// tiles, the non-empty tiles are compacted into a work list, and workers
// claim tiles off an atomic counter — finishing a cheap tile immediately
// frees a worker for the next, so load balance does not depend on
// fragment work being spread evenly across the screen. Each worker gathers
// its fragments into lane batches (lanes.go).
//
// Bit-identity with the per-fragment interpreter loop in draw.go: every
// pixel belongs to exactly one tile, each tile walks ALL triangles
// overlapping it in submission order, so the per-pixel sequence of shades
// and blends is exactly the serial one restricted to that pixel (see
// parallel.go for why fragment order across pixels is free). Counters are
// int64 sums over fragments, so per-worker subtotals merged by addition
// reproduce the serial totals.

import (
	"sync/atomic"

	"gles2gpgpu/internal/raster"
	"gles2gpgpu/internal/shader"
)

// tileSize is the edge length of the square screen tiles draws are binned
// into. 32 matches the binning granularity class of the paper's tile-based
// parts (VideoCore IV, PowerVR SGX).
const tileSize = 32

// tileBin is one non-empty screen tile: its inclusive pixel rectangle and
// the indices of the set-up triangles whose bounding boxes overlap it, in
// submission order.
type tileBin struct {
	x0, y0, x1, y1 int
	tris           []int32
}

// binTiles bins triangle setups into tileSize-square screen tiles covering
// their joint bounding box, returning only non-empty tiles in row-major
// order. The triangle index lists come from one flat backing array sized
// by a counting pass, so binning allocates O(tiles + overlaps) regardless
// of triangle count.
func binTiles(setups []raster.Triangle) []tileBin {
	minX, minY := int(^uint(0)>>1), int(^uint(0)>>1)
	maxX, maxY := -minX-1, -minY-1
	for i := range setups {
		x0, y0, x1, y1 := setups[i].Bounds()
		if x0 < minX {
			minX = x0
		}
		if y0 < minY {
			minY = y0
		}
		if x1 > maxX {
			maxX = x1
		}
		if y1 > maxY {
			maxY = y1
		}
	}
	if minX > maxX || minY > maxY {
		return nil
	}
	tx0g, ty0g := minX/tileSize, minY/tileSize
	tx1g, ty1g := maxX/tileSize, maxY/tileSize
	ntx, nty := tx1g-tx0g+1, ty1g-ty0g+1

	// Counting pass: overlaps per tile.
	counts := make([]int32, ntx*nty)
	for i := range setups {
		tx0, ty0, tx1, ty1, ok := setups[i].TileRange(tileSize, tileSize)
		if !ok {
			continue
		}
		for ty := ty0; ty <= ty1; ty++ {
			row := (ty - ty0g) * ntx
			for tx := tx0; tx <= tx1; tx++ {
				counts[row+tx-tx0g]++
			}
		}
	}

	// Prefix sums into one flat index array.
	total := int32(0)
	starts := make([]int32, len(counts)+1)
	for i, n := range counts {
		starts[i] = total
		total += n
	}
	starts[len(counts)] = total
	flat := make([]int32, total)
	fill := make([]int32, len(counts))
	for i := range setups {
		tx0, ty0, tx1, ty1, ok := setups[i].TileRange(tileSize, tileSize)
		if !ok {
			continue
		}
		for ty := ty0; ty <= ty1; ty++ {
			row := (ty - ty0g) * ntx
			for tx := tx0; tx <= tx1; tx++ {
				cell := row + tx - tx0g
				flat[starts[cell]+fill[cell]] = int32(i)
				fill[cell]++
			}
		}
	}

	// Compact the non-empty tiles.
	tiles := make([]tileBin, 0, len(counts))
	for ty := 0; ty < nty; ty++ {
		for tx := 0; tx < ntx; tx++ {
			cell := ty*ntx + tx
			if counts[cell] == 0 {
				continue
			}
			px0 := (tx0g + tx) * tileSize
			py0 := (ty0g + ty) * tileSize
			tiles = append(tiles, tileBin{
				x0: px0, y0: py0, x1: px0 + tileSize - 1, y1: py0 + tileSize - 1,
				tris: flat[starts[cell]:starts[cell+1]],
			})
		}
	}
	return tiles
}

// shadeTriangles is the fast path for triangle draws whose fragment
// program has a lane form (lf, see laneFormFor). It bins the draw once and
// shades every tile in lane batches on min(workers, tiles) goroutines —
// one, inline on the draw goroutine, below parallelMinFragments estimated
// fragments. A draw eligible for cross-iteration elision (coherence.go)
// first replays its unchanged tiles, then records each tile it shades and
// commits them to the cache after the join.
func (c *Context) shadeTriangles(p *Program, lf *laneForm, tgt renderTarget, setups []raster.Triangle, estFrags int64, vpX, vpY int, samplers []*Texture, texFns []shader.TexFunc) drawStats {
	tiles := binTiles(setups)
	st := drawStats{valid: true}
	var rec *cohRecorder
	if c.coherentEligible(p, tgt, samplers) {
		rec, tiles = c.cohReplay(p, tgt, setups, tiles, vpX, vpY, samplers, &st)
	}
	nw := c.workers
	if estFrags < parallelMinFragments {
		nw = 1
	}
	if nw > len(tiles) {
		nw = len(tiles)
	}

	sample := envSampler(samplers)
	var next int64
	results := make([]shadeStats, nw)
	worker := func(wi int) {
		// Batches may span triangles and tiles within this worker's walk;
		// scatter order equals gather order, so each pixel's shade/blend
		// sequence matches the per-fragment interpreter loop. Batches
		// flush at the edges of a recorded tile so its stat share is its
		// own.
		ls := c.newLaneShader(lf, p, tgt, texFns, sample)
		for {
			ti := int(atomic.AddInt64(&next, 1)) - 1
			if ti >= len(tiles) {
				break
			}
			tile := &tiles[ti]
			var ct *cohTile
			if rec != nil {
				ct = rec.open(ls, ti)
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
			if ct != nil {
				rec.close(ls, ti, ct)
			}
		}
		results[wi] = ls.finish()
	}
	if nw == 1 {
		worker(0)
	} else if nw > 1 {
		fns := make([]func(), nw)
		for wi := range fns {
			wi := wi
			fns[wi] = func() { worker(wi) }
		}
		c.ensurePool().run(fns)
	}

	for _, r := range results {
		st.fragments += r.fragments
		st.cycles += r.cycles
		st.texFetches += r.texFetches
	}
	if rec != nil {
		rec.commit()
	}
	return st
}
