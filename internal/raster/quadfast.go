package raster

// Exact-quad incremental rasterisation.
//
// The canonical GPGPU draw is a full-viewport quad: two axis-aligned right
// triangles with w == 1 everywhere and integer screen coordinates. For
// such triangles every quantity the per-pixel path computes is an exact
// dyadic rational, and exact arithmetic is associative — so varyings can
// be stepped incrementally across a scanline (one add per channel) instead
// of re-derived from barycentrics (three divisions and nine multiplies per
// pixel), with bit-identical results.
//
// Setup proves the exactness conditions per triangle (classifyExact):
//
//  1. invW[i] == 1 for all vertices: perspective division degenerates and
//     w == 1 exactly, removing the per-pixel reciprocal.
//  2. Edge coefficients a, b, c are integers with |a|,|b| ≤ 2^20 and
//     |c| ≤ 2^41: every edge value at a pixel centre (x+0.5, y+0.5) is an
//     exact multiple of 0.5 with magnitude < 2^53, so both the direct
//     evaluation a·px + b·py + c and the incremental column step e += a
//     are exact — coverage decisions are identical by construction.
//  3. area2 == 2^k with k ≤ 25: barycentrics l_i = e_i / area2 are exact
//     (division by a power of two), and inside the triangle 0 ≤ e_i ≤
//     area2, so l_i carries at most k+1 significand bits.
//  4. Per varying channel, the nonzero vertex values span at most 25−k
//     binades: writing values in a common unit 2^(Emin−24), each product
//     l_i·v_i is an integer of at most (k+1)+24+spread ≤ 51 bits and the
//     three-term sum stays under 2^53 — every product and partial sum the
//     per-pixel formula performs is exact.
//
// Under 1–4 the interpolated varying v(x) is the exact real value at
// every covered pixel, Σl_i == 1 exactly (e0+e1+e2 == area2 identically),
// and the per-unit-x difference dv = v(x+1) − v(x) — computed from two
// covered pixels, both exact — is an exact dyadic whose repeated addition
// reproduces the per-pixel results bit for bit. Fused multiply-add, which
// Go permits the compiler to introduce, cannot perturb this: fusing only
// skips intermediate roundings, and no intermediate here rounds at all.
//
// The fast path keeps the per-pixel edge test (on incrementally stepped,
// provably identical e values) so the fill rule and fragment set match the
// reference path exactly. internal/raster's differential property tests
// (quadfast_test.go) check fast-vs-reference bit-equality over randomised
// quads and the classifier's rejection of inexact geometry.

import (
	"math"
	"os"

	"gles2gpgpu/internal/shader"
)

// quadFast gates the exact-quad fast path; the reference per-pixel path
// remains the semantics. Defaults on unless GLES2GPGPU_NO_QUADFAST is set.
var quadFast = os.Getenv("GLES2GPGPU_NO_QUADFAST") == ""

// SetQuadFast toggles the exact-quad incremental fast path. Results are
// bit-identical either way; only host time changes. Not safe to call
// concurrently with draws.
func SetQuadFast(on bool) { quadFast = on }

// classifyExact proves the dyadic-exactness conditions that make
// incremental varying interpolation bit-identical to the per-pixel
// reference path. Called once per triangle at Setup.
func (t *Triangle) classifyExact() bool {
	const maxCoeff = 1 << 20 // |a|,|b| and screen-coordinate bound
	const maxC = 1 << 41     // |c| ≤ 2·maxCoeff² for integer coordinates
	for i := 0; i < 3; i++ {
		if t.invW[i] != 1 {
			return false
		}
		a, b, c := t.a[i], t.b[i], t.c[i]
		if a != math.Trunc(a) || b != math.Trunc(b) || c != math.Trunc(c) {
			return false
		}
		if math.Abs(a) > maxCoeff || math.Abs(b) > maxCoeff || math.Abs(c) > maxC {
			return false
		}
	}
	if t.maxX >= maxCoeff || t.maxY >= maxCoeff {
		return false
	}
	frac, exp := math.Frexp(t.area2)
	if frac != 0.5 {
		return false // area2 not a power of two
	}
	k := exp - 1 // area2 == 2^k; k ≥ 0 because area2 is a positive integer
	if k > 25 {
		return false
	}
	maxSpread := 25 - k
	for vi := 0; vi < t.numVar; vi++ {
		for ci := 0; ci < 4; ci++ {
			emin, emax := math.MaxInt32, math.MinInt32
			for i := 0; i < 3; i++ {
				f := float64(t.varyings[i][vi][ci])
				if f == 0 {
					continue
				}
				if math.IsInf(f, 0) || math.IsNaN(f) {
					return false
				}
				e := math.Ilogb(f)
				if e < emin {
					emin = e
				}
				if e > emax {
					emax = e
				}
			}
			if emax != math.MinInt32 && emax-emin > maxSpread {
				return false
			}
		}
	}
	return true
}

// varyingsAt computes perspective-correct varyings at a pixel with the
// exact expression shapes of the reference path in RasterizeRect, keeping
// the float64 values (the float32 narrowing happens at emit time in both
// paths).
func (t *Triangle) varyingsAt(e [3]float64, out *[MaxVaryings][4]float64) {
	l0 := e[0] / t.area2
	l1 := e[1] / t.area2
	l2 := e[2] / t.area2
	invW := l0*t.invW[0] + l1*t.invW[1] + l2*t.invW[2]
	w := 1 / invW
	for vi := 0; vi < t.numVar; vi++ {
		for ci := 0; ci < 4; ci++ {
			v := l0*float64(t.varyings[0][vi][ci])*t.invW[0] +
				l1*float64(t.varyings[1][vi][ci])*t.invW[1] +
				l2*float64(t.varyings[2][vi][ci])*t.invW[2]
			out[vi][ci] = v * w
		}
	}
}

// rasterizeRectFast scans a clipped rectangle of an exactness-proven
// triangle, stepping edge values by column and varyings by their exact
// per-column difference. The first two covered pixels of each row are
// evaluated with the reference formula (establishing the row's base value
// and exact step); later pixels are one add per channel. Covered pixels
// form one contiguous span per row (the triangle is convex and the fill
// rule only trims span endpoints), so the scan stops at the first
// uncovered pixel after the span.
func (t *Triangle) rasterizeRectFast(x0, y0, x1, y1 int, emit FragmentSink) int {
	var varbuf [MaxVaryings]shader.Vec4
	var acc, second, dv [MaxVaryings][4]float64
	count := 0
	for y := y0; y <= y1; y++ {
		py := float64(y) + 0.5
		px := float64(x0) + 0.5
		var e [3]float64
		for i := 0; i < 3; i++ {
			e[i] = t.a[i]*px + t.b[i]*py + t.c[i]
		}
		run := 0
		for x := x0; x <= x1; x++ {
			inside := true
			for i := 0; i < 3; i++ {
				if e[i] < 0 || (e[i] == 0 && !t.topLeft(i)) {
					inside = false
					break
				}
			}
			if !inside {
				if run > 0 {
					break // past the row's contiguous covered span
				}
				e[0] += t.a[0]
				e[1] += t.a[1]
				e[2] += t.a[2]
				continue
			}
			run++
			switch {
			case run == 1:
				t.varyingsAt(e, &acc)
			case run == 2:
				t.varyingsAt(e, &second)
				for vi := 0; vi < t.numVar; vi++ {
					for ci := 0; ci < 4; ci++ {
						dv[vi][ci] = second[vi][ci] - acc[vi][ci]
					}
				}
				acc = second
			default:
				for vi := 0; vi < t.numVar; vi++ {
					for ci := 0; ci < 4; ci++ {
						acc[vi][ci] += dv[vi][ci]
					}
				}
			}
			for vi := 0; vi < t.numVar; vi++ {
				varbuf[vi] = shader.Vec4{
					float32(acc[vi][0]), float32(acc[vi][1]),
					float32(acc[vi][2]), float32(acc[vi][3]),
				}
			}
			// invW == 1 exactly under the classifier's conditions, so the
			// reference fragCoord.w of float32(invW) is the constant 1.
			fc := shader.Vec4{float32(float64(x) + 0.5), float32(py), 0.5, 1}
			emit(x, y, fc, varbuf[:t.numVar])
			count++
			e[0] += t.a[0]
			e[1] += t.a[1]
			e[2] += t.a[2]
		}
	}
	return count
}
