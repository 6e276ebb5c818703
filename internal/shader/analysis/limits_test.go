package analysis

import (
	"strings"
	"testing"

	"gles2gpgpu/internal/kernels"
)

// TestSgemmCompileCliff reproduces Fig. 4b's compile cliff statically:
// blocked sgemm at M=1024 fits both device profiles for every block size
// the paper ran (1…16), and fails above 16 with the instruction-count
// diagnostic — the paper's "crashes and shader compilation failures ...
// due to exceeding GLSL implementation limits".
func TestSgemmCompileCliff(t *testing.T) {
	const m = 1024
	profiles := LimitProfiles()
	if len(profiles) != 2 {
		t.Fatalf("want the two paper profiles, got %v", profiles)
	}
	for _, block := range []int{1, 2, 4, 8, 16, 32, 64} {
		src, err := kernels.SgemmPass(m, block, kernels.DefaultOptions)
		if err != nil {
			t.Fatalf("block %d: %v", block, err)
		}
		p := compileGLSL(t, src)
		res := CountResources(BuildCFG(p))
		for _, lp := range profiles {
			exceeded := findByCode(CheckLimits(p, res, lp), "limit-exceeded")
			if block <= 16 {
				if len(exceeded) != 0 {
					t.Errorf("block %d on %s: unexpected rejection: %v", block, lp.Name, exceeded)
				}
				continue
			}
			if len(exceeded) == 0 {
				t.Errorf("block %d on %s: should exceed limits", block, lp.Name)
				continue
			}
			f := exceeded[0]
			if f.Sev != SevError || !strings.Contains(f.Msg, "instructions") {
				t.Errorf("block %d on %s: diagnostic %q, want the instruction count first as an error",
					block, lp.Name, f.Msg)
			}
			if f.Pos.Line == 0 {
				t.Errorf("block %d on %s: instruction-limit finding has no source position", block, lp.Name)
			}
		}
	}
}

func TestLimitProfileFor(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		want string
	}{
		{"videocore", "VideoCore IV"},
		{"vc4", "VideoCore IV"},
		{"rpi", "VideoCore IV"},
		{"sgx", "PowerVR"},
		{"powervr", "PowerVR"},
		{"generic", "generic"},
		{"", "generic"},
	} {
		lp, ok := LimitProfileFor(tc.arg)
		if !ok || !strings.Contains(lp.Name, tc.want) {
			t.Errorf("LimitProfileFor(%q) = %v %v, want name containing %q", tc.arg, lp, ok, tc.want)
		}
	}
	if _, ok := LimitProfileFor("nonesuch"); ok {
		t.Errorf("unknown profile should not resolve")
	}
}

// TestDependentTexLimit checks the new dependent-read axis: a chain of
// fetches deeper than the VideoCore IV FIFO bound is rejected there but
// fits the SGX profile.
func TestDependentTexLimit(t *testing.T) {
	p := compileGLSL(t, `precision mediump float;
uniform sampler2D text0;
varying vec2 v_tex;
void main() {
	vec2 c = v_tex;
	c = texture2D(text0, c).xy;
	c = texture2D(text0, c).xy;
	c = texture2D(text0, c).xy;
	c = texture2D(text0, c).xy;
	c = texture2D(text0, c).xy;
	gl_FragColor = vec4(c, 0.0, 1.0);
}
`)
	res := CountResources(BuildCFG(p))
	if res.DepTexDepth != 5 {
		t.Fatalf("DepTexDepth = %d, want 5", res.DepTexDepth)
	}
	var vc4, sgx LimitProfile
	for _, lp := range LimitProfiles() {
		if strings.Contains(lp.Name, "VideoCore") {
			vc4 = lp
		} else {
			sgx = lp
		}
	}
	vc4Exceeded := findByCode(CheckLimits(p, res, vc4), "limit-exceeded")
	if len(vc4Exceeded) != 1 || !strings.Contains(vc4Exceeded[0].Msg, "dependent texture reads") {
		t.Errorf("VideoCore: %v, want one dependent-texture-read rejection", vc4Exceeded)
	}
	if fs := findByCode(CheckLimits(p, res, sgx), "limit-exceeded"); len(fs) != 0 {
		t.Errorf("SGX (depth limit 8): unexpected rejection: %v", fs)
	}
}
