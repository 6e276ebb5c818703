package shader

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"gles2gpgpu/internal/glsl"
)

// Differential fuzzing of the compiler + VM: generate random scalar GLSL
// expressions together with an equivalent Go evaluator, compile the GLSL
// through the full front end and back end, run it in the VM, and compare.
// Divergence means a code-generation or VM bug.

// exprGen builds a random expression tree of bounded depth over the
// uniforms x, y, z (all in (0,1]).
type exprGen struct {
	rng *rand.Rand
}

// gen returns the GLSL source of the expression and its evaluator.
func (g *exprGen) gen(depth int) (string, func(x, y, z float64) float64) {
	if depth <= 0 || g.rng.Intn(4) == 0 {
		switch g.rng.Intn(5) {
		case 0:
			return "x", func(x, y, z float64) float64 { return x }
		case 1:
			return "y", func(x, y, z float64) float64 { return y }
		case 2:
			return "z", func(x, y, z float64) float64 { return z }
		default:
			v := float64(g.rng.Intn(16)+1) / 16.0
			return fmt.Sprintf("%.4f", v), func(x, y, z float64) float64 { return v }
		}
	}
	a, fa := g.gen(depth - 1)
	b, fb := g.gen(depth - 1)
	switch g.rng.Intn(9) {
	case 0:
		return "(" + a + " + " + b + ")", func(x, y, z float64) float64 { return fa(x, y, z) + fb(x, y, z) }
	case 1:
		return "(" + a + " - " + b + ")", func(x, y, z float64) float64 { return fa(x, y, z) - fb(x, y, z) }
	case 2:
		return "(" + a + " * " + b + ")", func(x, y, z float64) float64 { return fa(x, y, z) * fb(x, y, z) }
	case 3:
		// a*b + c: the MAD-fusion path.
		c, fc := g.gen(depth - 1)
		return "(" + a + " * " + b + " + " + c + ")",
			func(x, y, z float64) float64 { return fa(x, y, z)*fb(x, y, z) + fc(x, y, z) }
	case 4:
		return "min(" + a + ", " + b + ")", func(x, y, z float64) float64 { return math.Min(fa(x, y, z), fb(x, y, z)) }
	case 5:
		return "max(" + a + ", " + b + ")", func(x, y, z float64) float64 { return math.Max(fa(x, y, z), fb(x, y, z)) }
	case 6:
		return "abs(" + a + " - " + b + ")", func(x, y, z float64) float64 { return math.Abs(fa(x, y, z) - fb(x, y, z)) }
	case 7:
		return "clamp(" + a + ", 0.0, 1.0)", func(x, y, z float64) float64 {
			return math.Min(math.Max(fa(x, y, z), 0), 1)
		}
	default:
		// Ternary with a comparison: the branchy path.
		return "((" + a + " > " + b + ") ? " + a + " : " + b + ")",
			func(x, y, z float64) float64 {
				if fa(x, y, z) > fb(x, y, z) {
					return fa(x, y, z)
				}
				return fb(x, y, z)
			}
	}
}

func TestDifferentialExpressionFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(20170327)) // the paper's conference date
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		g := &exprGen{rng: rng}
		expr, ref := g.gen(3 + rng.Intn(2))
		src := hdr + `
uniform float x;
uniform float y;
uniform float z;
void main(){ gl_FragColor = vec4(` + expr + `); }`
		cs, err := glsl.Frontend(src, glsl.CompileOptions{Stage: glsl.StageFragment})
		if err != nil {
			t.Fatalf("trial %d: frontend: %v\n%s", trial, err, expr)
		}
		p, err := Compile(cs)
		if err != nil {
			t.Fatalf("trial %d: compile: %v\n%s", trial, err, expr)
		}
		env := NewEnv(p)
		out, ok := p.LookupOutput("gl_FragColor")
		if !ok {
			t.Fatal("no output")
		}
		setU := func(name string, v float64) {
			if u, ok := p.LookupUniform(name); ok {
				env.Uniforms[u.Reg] = Vec4{float32(v)}
			}
		}
		for probe := 0; probe < 8; probe++ {
			x := float64(rng.Intn(1000)+1) / 1000.0
			y := float64(rng.Intn(1000)+1) / 1000.0
			z := float64(rng.Intn(1000)+1) / 1000.0
			env.Reset()
			setU("x", x)
			setU("y", y)
			setU("z", z)
			if err := Run(p, env); err != nil {
				t.Fatalf("trial %d: run: %v\n%s", trial, err, expr)
			}
			want := ref(x, y, z)
			got := float64(env.Outputs[out.Reg][0])
			tol := 1e-4 * math.Max(1, math.Abs(want))
			if math.Abs(got-want) > tol {
				t.Fatalf("trial %d: %s\nat (%g,%g,%g): vm=%g go=%g",
					trial, expr, x, y, z, got, want)
			}
		}
	}
}

// The same differential check through a generated unrolled loop: the
// accumulation pattern every GPGPU kernel in the repository uses.
func TestDifferentialLoopFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		trip := rng.Intn(12) + 1
		scale := float64(rng.Intn(8)+1) / 8.0
		src := hdr + fmt.Sprintf(`
uniform float x;
void main(){
	float acc = 0.0;
	for (int i = 0; i < %d; i++) {
		acc += x * %.4f + float(i) * 0.001;
	}
	gl_FragColor = vec4(acc);
}`, trip, scale)
		cs, err := glsl.Frontend(src, glsl.CompileOptions{Stage: glsl.StageFragment})
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(cs)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(p.Disassemble(), "br ") {
			t.Fatal("loop not unrolled")
		}
		env := NewEnv(p)
		u, _ := p.LookupUniform("x")
		out, _ := p.LookupOutput("gl_FragColor")
		x := rng.Float64()
		env.Uniforms[u.Reg] = Vec4{float32(x)}
		if err := Run(p, env); err != nil {
			t.Fatal(err)
		}
		var want float64
		for i := 0; i < trip; i++ {
			want += x*scale + float64(i)*0.001
		}
		got := float64(env.Outputs[out.Reg][0])
		if math.Abs(got-want) > 1e-4*math.Max(1, want) {
			t.Fatalf("trial %d (trip %d): vm=%g go=%g", trial, trip, got, want)
		}
	}
}
