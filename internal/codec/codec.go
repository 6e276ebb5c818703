// Package codec implements the float↔RGBA8 data encoding of Trompouki &
// Kosmidis, "Towards General Purpose Computations on Low-End Mobile GPUs"
// (DATE 2016) — reference [13] of the reproduced paper.
//
// OpenGL ES 2.0 fragment shaders can only read textures and write the
// framebuffer as normalised 8-bit RGBA, so GPGPU data is carried as a
// fixed-point fraction spread over the channels: a value v ∈ [0,1) is
// stored as bytes b0..b3 with v ≈ b0/2⁸ + b1/2¹⁶ + b2/2²⁴ + b3/2³².
// Shader-side, reconstr_in rebuilds the value with a single dot product and
// encode_out splits it back with floor/fract chains. The achievable
// precision is 24–32 bits depending on the shader float precision — the
// reason the paper's fp24 optimisation (mul24 + 3-byte I/O) loses nothing.
//
// Values outside [0,1) are mapped through an affine Range (lo,hi) on the
// CPU side; linear kernels compose with the affine map in well-defined
// ways (see Range).
package codec

import (
	"fmt"
	"math"
)

// Depth selects how many channels carry payload.
type Depth int

// Supported encoding depths.
const (
	// Depth32 uses all four channels: ~32-bit fixed point (quantised by
	// the 8-bit store to 2⁻³² steps, but limited by shader float
	// precision to 24+ effective bits).
	Depth32 Depth = 4
	// Depth24 uses RGB only — the paper's fp24 kernels: 24-bit fixed
	// point, 25% less traffic, exact under mul24 arithmetic.
	Depth24 Depth = 3
)

// Quantum returns the representable step size.
func (d Depth) Quantum() float64 {
	return math.Pow(2, -8*float64(d))
}

func (d Depth) String() string {
	if d == Depth24 {
		return "fp24"
	}
	return "fp32"
}

// Encode packs a value v ∈ [0,1) into the leading channels of dst
// (truncating, as the shader's floor-based encoder does). Values outside
// [0,1) are clamped to the representable range; NaN encodes as 0.
func (d Depth) Encode(v float64, dst []byte) {
	if !(v >= 0) { // negative or NaN
		v = 0
	}
	max := 1 - d.Quantum()
	if v > max {
		v = max
	}
	acc := v
	for i := 0; i < int(d); i++ {
		acc *= 256
		b := math.Floor(acc)
		if b > 255 {
			b = 255
		}
		dst[i] = byte(b)
		acc -= b
	}
	// Unused channels hold a fully-opaque alpha so encoded textures remain
	// valid images.
	for i := int(d); i < 4 && i < len(dst); i++ {
		dst[i] = 255
	}
}

// Decode unpacks a value from the leading channels of src.
func (d Depth) Decode(src []byte) float64 {
	var v float64
	scale := 1.0
	for i := 0; i < int(d); i++ {
		scale /= 256
		v += float64(src[i]) * scale
	}
	return v
}

// Range is the affine map between user values [Lo,Hi] and the encoded
// domain [0,1). GPGPU kernels operate in the encoded domain; the harness
// picks ranges so kernel outputs stay in [0,1) (e.g. sum of two [0,1)
// inputs uses an output range twice as wide).
type Range struct {
	Lo, Hi float64
}

// Unit is the identity range [0,1).
var Unit = Range{0, 1}

// ToUnit maps a user value into [0,1).
func (r Range) ToUnit(v float64) float64 {
	if r.Hi == r.Lo {
		return 0
	}
	return (v - r.Lo) / (r.Hi - r.Lo)
}

// FromUnit maps an encoded value back to user space.
func (r Range) FromUnit(u float64) float64 {
	return r.Lo + u*(r.Hi-r.Lo)
}

// Width returns Hi-Lo.
func (r Range) Width() float64 { return r.Hi - r.Lo }

// Matrix is a dense row-major float64 matrix with an encoding range, the
// host-side view of a GPGPU operand.
type Matrix struct {
	Rows, Cols int
	Data       []float64
	Range      Range
}

// NewMatrix allocates a zero matrix with the unit range.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols), Range: Unit}
}

// At returns element (r,c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r,c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// EncodeTexture packs the matrix into an RGBA8 texel array (one texel per
// element, row-major, row 0 at v=0).
func (m *Matrix) EncodeTexture(d Depth) []byte {
	out := make([]byte, m.Rows*m.Cols*4)
	for i, v := range m.Data {
		d.Encode(m.Range.ToUnit(v), out[i*4:i*4+4])
	}
	return out
}

// DecodeTexture unpacks an RGBA8 texel array produced by the GPU into the
// matrix, applying the inverse range map.
func (m *Matrix) DecodeTexture(d Depth, texels []byte) error {
	if len(texels) < m.Rows*m.Cols*4 {
		return fmt.Errorf("codec: texel buffer %d bytes, need %d", len(texels), m.Rows*m.Cols*4)
	}
	for i := range m.Data {
		m.Data[i] = m.Range.FromUnit(d.Decode(texels[i*4 : i*4+4]))
	}
	return nil
}

// MaxAbsError is the worst-case absolute error of a round trip through the
// encoding for this matrix's range.
func (m *Matrix) MaxAbsError(d Depth) float64 {
	return d.Quantum() * math.Abs(m.Range.Width())
}

// GLSL snippet generation: the reconstr_in / encode_out transformation
// functions of [13], emitted as GLSL helper functions for kernel sources.

// ReconstrGLSL returns the reconstr_in helper: a single dot product maps a
// texel to the encoded value (the paper's kernel-code optimisation of using
// the dot builtin, which is one hardware instruction).
func ReconstrGLSL(d Depth) string {
	switch d {
	case Depth24:
		return `float reconstr_in(vec4 t) {
	return dot(t.rgb, vec3(255.0/256.0, 255.0/65536.0, 255.0/16777216.0));
}
`
	default:
		return `float reconstr_in(vec4 t) {
	return dot(t, vec4(255.0/256.0, 255.0/65536.0, 255.0/16777216.0, 255.0/4294967296.0));
}
`
	}
}

// EncodeGLSL returns the encode_out helper that splits a value in [0,1)
// into channel bytes for gl_FragColor.
//
// The saturation bound needs care at Depth32: the ideal 1 - 2⁻³² is not a
// float32 and rounds back to 1.0, which would make encode_out(1.0) wrap —
// floor(256.0) saturates the red byte but zeroes the rest, decoding to
// 255/256. Clamping to the largest float32 below 1.0 (1 - 2⁻²⁴) keeps every
// sub-1.0 encoding bit-identical while saturated inputs land within 2⁻²⁴ of
// full scale. Depth24's bound is exactly representable, so it is unaffected.
func EncodeGLSL(d Depth) string {
	if d == Depth24 {
		return `vec4 encode_out(float v) {
	v = clamp(v, 0.0, 1.0 - 1.0/16777216.0);
	float r = floor(v * 256.0);
	v = v * 256.0 - r;
	float g = floor(v * 256.0);
	v = v * 256.0 - g;
	float b = floor(v * 256.0);
	return vec4(r / 255.0, g / 255.0, b / 255.0, 1.0);
}
`
	}
	return `vec4 encode_out(float v) {
	v = clamp(v, 0.0, 0.99999994);
	float r = floor(v * 256.0);
	v = v * 256.0 - r;
	float g = floor(v * 256.0);
	v = v * 256.0 - g;
	float b = floor(v * 256.0);
	v = v * 256.0 - b;
	float a = floor(v * 256.0);
	return vec4(r / 255.0, g / 255.0, b / 255.0, a / 255.0);
}
`
}
