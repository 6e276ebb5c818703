package shader

// RGBA8 channel quantisation, shared by the rasteriser (encoding fragment
// colours into framebuffer bytes) and the OpQUANT IR instruction (modelling
// that round trip inside a fused program). Pass fusion replaces an
// intermediate render-to-texture + sample with OpQUANT on the producing
// stage's colour value; for the fused pipeline to be bit-identical to the
// unfused one, the instruction must apply the exact encode/decode the
// framebuffer and sampler would. Keeping the only definitions here — and
// having internal/gles delegate to them — guarantees there is a single
// compiled instance of each conversion, so no cross-package floating-point
// contraction differences can creep in.

// EncodeChannelByte converts a float colour channel to an 8-bit framebuffer
// byte with round-to-nearest and clamping, as glTexImage2D/rendering does.
func EncodeChannelByte(v float32) byte {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 255
	}
	return byte(v*255 + 0.5)
}

// decodeChannelTable maps a byte to the float32 the sampler produces for
// it. Built exactly like the gles sampler's byte→float table: a single
// multiply by 1/255, no FMA opportunity.
var decodeChannelTable = func() (t [256]float32) {
	const inv = float32(1.0 / 255.0)
	for i := range t {
		t[i] = float32(i) * inv
	}
	return
}()

// QuantizeChannel is the full store-then-sample round trip for one channel:
// decode(encode(v)). OpQUANT applies this per masked component.
func QuantizeChannel(v float32) float32 {
	return decodeChannelTable[EncodeChannelByte(v)]
}
