package gles

// Draw-time sampler specialization.
//
// The generic texture path (sampleTexture) re-resolves per fetch what is
// draw-constant state: completeness, mag filter, the two wrap modes, and
// the texture dimensions — and then decodes four texel bytes with four
// byte→float multiplies. A fragment program fetches per fragment, so for
// paper-sized grids that is millions of redundant state checks per draw.
//
// specializeSamplers resolves each bound texture's state once per draw and
// returns one shader.TexFunc per sampler slot:
//
//   - incomplete textures get a constant opaque-black closure (the GLES2
//     completeness rule, decided once instead of per fetch);
//   - NEAREST-magnified, CLAMP_TO_EDGE-wrapped textures — the GPGPU
//     configuration every kernel in this repository uses — get a fast path
//     with the width/height conversions precomputed, direct row-offset
//     indexing into the texel bytes, and the shared 256-entry byte→float32
//     decode table;
//   - everything else (LINEAR filtering, REPEAT wrapping) keeps a closure
//     over the generic path.
//
// Every branch is bit-identical to sampleTexture: the fast path repeats the
// exact expression shapes of wrapCoord/sampleNearest/texel (including the
// implementation-defined int(NaN) conversion, which both paths feed through
// the same clamps), and the decode table is built with the same
// float32(byte) * float32(1.0/255.0) product texel computes.

import "gles2gpgpu/internal/shader"

// byteToF32 is the shared byte→float32 decode table. Each entry holds
// exactly the value texel() computes for that byte, so table lookups are
// bit-identical to the inline multiply.
var byteToF32 [256]float32

func init() {
	const inv = 1.0 / 255.0 // the same constant texel() multiplies by
	for i := range byteToF32 {
		byteToF32[i] = float32(i) * inv
	}
}

// opaqueBlack is the incomplete-texture sample, per the GLES2 spec.
func opaqueBlack(u, v float32) shader.Vec4 { return shader.Vec4{0, 0, 0, 1} }

// specializeSampler builds the per-slot fetch function for one bound
// texture (nil for an unbound slot).
func specializeSampler(t *Texture) shader.TexFunc {
	if !texComplete(t) {
		return opaqueBlack
	}
	if t.magFilter != LINEAR && t.wrapS != REPEAT && t.wrapT != REPEAT {
		// Nearest + CLAMP_TO_EDGE on both axes: the GPGPU fast path.
		// wrapCoord treats every non-REPEAT mode as CLAMP_TO_EDGE.
		data := t.data
		w, h := t.W, t.H
		fw, fh := float32(w), float32(h)
		return func(u, v float32) shader.Vec4 {
			// wrapCoord(CLAMP_TO_EDGE): NaN falls through both compares
			// exactly as in the generic path.
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
			// texel()'s index clamps: u==1 maps to ix==w, and a NaN u
			// reaches here as an implementation-defined int.
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
			off := (iy*w + ix) * 4
			return shader.Vec4{
				byteToF32[data[off]],
				byteToF32[data[off+1]],
				byteToF32[data[off+2]],
				byteToF32[data[off+3]],
			}
		}
	}
	// LINEAR filtering or REPEAT wrapping: keep the generic reference path.
	return func(u, v float32) shader.Vec4 {
		return shader.Vec4(sampleTexture(t, u, v))
	}
}

// specializeSamplers resolves the draw's bound textures into per-slot fetch
// functions. The returned slice is installed into every Env shading the
// draw (serial and per-worker alike); texture state cannot change while a
// draw executes, and the closures only read texture state, so sharing them
// across workers is safe.
func specializeSamplers(samplers []*Texture) []shader.TexFunc {
	if len(samplers) == 0 {
		return nil
	}
	fns := make([]shader.TexFunc, len(samplers))
	for i, t := range samplers {
		fns[i] = specializeSampler(t)
	}
	return fns
}
