package codec

import (
	"math"
	"testing"
)

// FuzzCodecRoundTrip checks the host side of the float↔RGBA8 encoding on
// any input, the committed corpus (testdata/fuzz) included: NaN, ±Inf,
// negative values and values of 1 or more.
//
//   - Encode never panics at either depth, and a Depth24 texel keeps its
//     opaque alpha.
//   - Decode(Encode(v)) lies within Quantum() of v clamped to the
//     representable [0, 1-Quantum()] (NaN clamps to 0).
//   - DecodeTexture rejects a texel buffer shorter than the matrix and
//     leaves the matrix untouched; otherwise it decodes every element.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, v float64, rows, cols uint8, texels []byte) {
		for _, d := range []Depth{Depth32, Depth24} {
			var buf [4]byte
			d.Encode(v, buf[:])
			if d == Depth24 && buf[3] != 255 {
				t.Fatalf("%s: encode(%g) alpha %d, want 255", d, v, buf[3])
			}
			want := v
			if !(want >= 0) {
				want = 0
			}
			want = math.Min(want, 1-d.Quantum())
			if got := d.Decode(buf[:]); !(math.Abs(got-want) <= d.Quantum()) {
				t.Fatalf("%s: %g encodes to % x, decodes to %g, want within %g of %g", d, v, buf, got, d.Quantum(), want)
			}
		}

		// Matrix sides stay at most 16 so one input allocates at most
		// 256 elements.
		m := NewMatrix(int(rows%17), int(cols%17))
		m.Range = Range{Lo: -1, Hi: 3}
		for i := range m.Data {
			m.Data[i] = v
		}
		for _, d := range []Depth{Depth32, Depth24} {
			err := m.DecodeTexture(d, texels)
			if need := 4 * len(m.Data); len(texels) < need {
				if err == nil {
					t.Fatalf("%s: accepted %d texel bytes for %d elements", d, len(texels), len(m.Data))
				}
				for i, got := range m.Data {
					if math.Float64bits(got) != math.Float64bits(v) {
						t.Fatalf("%s: rejected buffer changed element %d to %g", d, i, got)
					}
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: rejected %d texel bytes for %d elements: %v", d, len(texels), len(m.Data), err)
			}
			for i, got := range m.Data {
				if want := m.Range.FromUnit(d.Decode(texels[4*i:])); got != want {
					t.Fatalf("%s: element %d decodes to %g, want %g", d, i, got, want)
				}
			}
		}
	})
}
