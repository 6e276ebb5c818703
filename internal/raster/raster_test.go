package raster

import (
	"math"
	"testing"
	"testing/quick"

	"gles2gpgpu/internal/shader"
)

// quadVerts returns the standard GPGPU full-screen quad as two triangles in
// clip space with one vec2 varying running 0..1 across the viewport.
func quadVerts() [6]Vertex {
	mk := func(x, y, u, v float32) Vertex {
		vert := Vertex{Pos: shader.Vec4{x, y, 0, 1}, NumVar: 1}
		vert.Varyings[0] = shader.Vec4{u, v, 0, 0}
		return vert
	}
	bl := mk(-1, -1, 0, 0)
	br := mk(1, -1, 1, 0)
	tl := mk(-1, 1, 0, 1)
	tr := mk(1, 1, 1, 1)
	return [6]Vertex{bl, br, tr, bl, tr, tl}
}

// rasterizeQuad scans both triangles of the quad into a coverage map.
func rasterizeQuad(t *testing.T, w, h int) (map[[2]int]int, map[[2]int]shader.Vec4) {
	t.Helper()
	vs := quadVerts()
	cover := make(map[[2]int]int)
	vary := make(map[[2]int]shader.Vec4)
	for tri := 0; tri < 2; tri++ {
		tr, ok := Setup(&vs[tri*3], &vs[tri*3+1], &vs[tri*3+2], w, h)
		if !ok {
			t.Fatalf("triangle %d rejected", tri)
		}
		tr.Rasterize(func(x, y int, fc shader.Vec4, varyings []shader.Vec4) {
			cover[[2]int{x, y}]++
			vary[[2]int{x, y}] = varyings[0]
		})
	}
	return cover, vary
}

func TestFullScreenQuadCoversEveryPixelOnce(t *testing.T) {
	const w, h = 16, 12
	cover, _ := rasterizeQuad(t, w, h)
	if len(cover) != w*h {
		t.Fatalf("covered %d pixels, want %d", len(cover), w*h)
	}
	for p, n := range cover {
		if n != 1 {
			t.Fatalf("pixel %v covered %d times (fill-rule violation on the shared diagonal)", p, n)
		}
	}
}

func TestQuadVaryingInterpolation(t *testing.T) {
	const w, h = 8, 8
	_, vary := rasterizeQuad(t, w, h)
	for p, v := range vary {
		wantU := (float32(p[0]) + 0.5) / w
		wantV := (float32(p[1]) + 0.5) / h
		if math.Abs(float64(v[0]-wantU)) > 1e-5 || math.Abs(float64(v[1]-wantV)) > 1e-5 {
			t.Fatalf("pixel %v varying = (%g,%g), want (%g,%g)", p, v[0], v[1], wantU, wantV)
		}
	}
}

func TestQuadCoverageProperty(t *testing.T) {
	// Any viewport size: exact single coverage.
	f := func(a, b uint8) bool {
		w := int(a%64) + 1
		h := int(b%64) + 1
		vs := quadVerts()
		cover := make(map[[2]int]int)
		for tri := 0; tri < 2; tri++ {
			tr, ok := Setup(&vs[tri*3], &vs[tri*3+1], &vs[tri*3+2], w, h)
			if !ok {
				return false
			}
			tr.Rasterize(func(x, y int, fc shader.Vec4, varyings []shader.Vec4) {
				cover[[2]int{x, y}]++
			})
		}
		if len(cover) != w*h {
			return false
		}
		for _, n := range cover {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDegenerateTriangleRejected(t *testing.T) {
	v := Vertex{Pos: shader.Vec4{0, 0, 0, 1}}
	if _, ok := Setup(&v, &v, &v, 16, 16); ok {
		t.Error("zero-area triangle accepted")
	}
	// w <= 0 rejected.
	v2 := Vertex{Pos: shader.Vec4{1, 0, 0, 0}}
	v3 := Vertex{Pos: shader.Vec4{0, 1, 0, 1}}
	if _, ok := Setup(&v, &v2, &v3, 16, 16); ok {
		t.Error("w=0 vertex accepted")
	}
}

func TestOffscreenTriangleRejected(t *testing.T) {
	mk := func(x, y float32) Vertex { return Vertex{Pos: shader.Vec4{x, y, 0, 1}} }
	v0, v1, v2 := mk(2, 2), mk(3, 2), mk(2, 3)
	if _, ok := Setup(&v0, &v1, &v2, 16, 16); ok {
		t.Error("fully offscreen triangle not rejected by bounds clip")
	}
}

func TestBothWindingsRasterize(t *testing.T) {
	mk := func(x, y float32) Vertex { return Vertex{Pos: shader.Vec4{x, y, 0, 1}} }
	ccw := [3]Vertex{mk(-1, -1), mk(1, -1), mk(0, 1)}
	cw := [3]Vertex{mk(-1, -1), mk(0, 1), mk(1, -1)}
	count := func(vs [3]Vertex) int {
		tr, ok := Setup(&vs[0], &vs[1], &vs[2], 32, 32)
		if !ok {
			t.Fatal("triangle rejected")
		}
		return tr.Rasterize(func(int, int, shader.Vec4, []shader.Vec4) {})
	}
	if a, b := count(ccw), count(cw); a != b || a == 0 {
		t.Errorf("winding asymmetry: ccw=%d cw=%d", a, b)
	}
}

func TestTileRangeAndTiledEqualsFull(t *testing.T) {
	vs := quadVerts()
	const w, h = 40, 24
	const tile = 16
	full := make(map[[2]int]bool)
	tiled := make(map[[2]int]bool)
	for tri := 0; tri < 2; tri++ {
		tr, ok := Setup(&vs[tri*3], &vs[tri*3+1], &vs[tri*3+2], w, h)
		if !ok {
			t.Fatal("quad triangle rejected")
		}
		tr.Rasterize(func(x, y int, fc shader.Vec4, _ []shader.Vec4) {
			full[[2]int{x, y}] = true
		})
		tx0, ty0, tx1, ty1, any := tr.TileRange(tile, tile)
		if !any {
			t.Fatal("no tiles")
		}
		for ty := ty0; ty <= ty1; ty++ {
			for tx := tx0; tx <= tx1; tx++ {
				tr.RasterizeRect(tx*tile, ty*tile, tx*tile+tile-1, ty*tile+tile-1,
					func(x, y int, fc shader.Vec4, _ []shader.Vec4) {
						if tiled[[2]int{x, y}] {
							t.Fatalf("pixel (%d,%d) emitted twice across tiles", x, y)
						}
						tiled[[2]int{x, y}] = true
					})
			}
		}
	}
	if len(full) != len(tiled) {
		t.Fatalf("tiled coverage %d != full coverage %d", len(tiled), len(full))
	}
	for p := range full {
		if !tiled[p] {
			t.Fatalf("pixel %v missing from tiled pass", p)
		}
	}
}

func TestPerspectiveCorrectInterpolation(t *testing.T) {
	// A triangle with differing w: perspective-correct interpolation must
	// divide by interpolated 1/w, not lerp naively.
	mkw := func(x, y, w, varying float32) Vertex {
		v := Vertex{Pos: shader.Vec4{x * w, y * w, 0, w}, NumVar: 1}
		v.Varyings[0] = shader.Vec4{varying, 0, 0, 0}
		return v
	}
	v0 := mkw(-1, -1, 1, 0)
	v1 := mkw(1, -1, 4, 1)
	v2 := mkw(-1, 1, 1, 0)
	tr, ok := Setup(&v0, &v1, &v2, 64, 64)
	if !ok {
		t.Fatal("triangle rejected")
	}
	// Midpoint of the bottom edge in screen space: naive lerp would give
	// 0.5; perspective-correct gives 1/w weighting = (0*1 + 1*0.25)/(1.25)
	// = 0.2.
	var got float32 = -1
	tr.Rasterize(func(x, y int, fc shader.Vec4, varyings []shader.Vec4) {
		if x == 31 && y == 0 {
			got = varyings[0][0]
		}
	})
	if got < 0 {
		t.Fatal("midpoint fragment not emitted")
	}
	if math.Abs(float64(got)-0.2) > 0.02 {
		t.Errorf("perspective interpolation = %g, want ~0.2", got)
	}
}

func TestFragCoordConvention(t *testing.T) {
	vs := quadVerts()
	tr, ok := Setup(&vs[0], &vs[1], &vs[2], 4, 4)
	if !ok {
		t.Fatal("rejected")
	}
	tr.Rasterize(func(x, y int, fc shader.Vec4, _ []shader.Vec4) {
		if fc[0] != float32(x)+0.5 || fc[1] != float32(y)+0.5 {
			t.Fatalf("gl_FragCoord = (%g,%g) for pixel (%d,%d)", fc[0], fc[1], x, y)
		}
		if fc[3] != 1 {
			t.Fatalf("1/w = %g, want 1 for w=1 quad", fc[3])
		}
	})
}
