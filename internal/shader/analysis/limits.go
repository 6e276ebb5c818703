package analysis

import (
	"fmt"

	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/shader"
)

// Device-profile limit checking.
//
// This is the static predictor for the paper's compile cliff (§V-B
// Fig. 4b): whether a kernel compiles on a given device is decided by its
// post-unroll resource usage against the profile's implementation limits.
// Blocked sgemm at M=1024 grows by 22 instructions and 2 fetches per block
// step; block 16 lands at 393 instructions / 33 fetches — inside both
// profiles' 512/40 — while block 32 needs 745 instructions and is rejected
// with the instruction-count diagnostic, exactly the failure mode the
// paper reports for block sizes above 16.

// LimitProfile names a set of device limits for diagnostics.
type LimitProfile struct {
	Name   string
	Limits shader.Limits
}

// LimitProfiles returns the checkable device profiles: the two platforms
// the paper evaluates.
func LimitProfiles() []LimitProfile {
	vc4 := device.VideoCoreIV()
	sgx := device.PowerVRSGX545()
	return []LimitProfile{
		{Name: vc4.Name, Limits: vc4.Limits},
		{Name: sgx.Name, Limits: sgx.Limits},
	}
}

// LimitProfileFor resolves a profile by the short names the CLIs accept
// (matching cmd/glslc -device): "videocore"/"vc4"/"rpi", "sgx"/"powervr",
// or "generic".
func LimitProfileFor(name string) (LimitProfile, bool) {
	switch name {
	case "videocore", "vc4", "rpi":
		p := device.VideoCoreIV()
		return LimitProfile{Name: p.Name, Limits: p.Limits}, true
	case "sgx", "powervr", "sgx545":
		p := device.PowerVRSGX545()
		return LimitProfile{Name: p.Name, Limits: p.Limits}, true
	case "generic", "":
		p := device.Generic()
		return LimitProfile{Name: p.Name, Limits: p.Limits}, true
	}
	return LimitProfile{}, false
}

// limitChecks enumerates the metered quantities in diagnostic order. The
// instruction count is deliberately first: it is the limit real drivers
// report for over-unrolled kernels, and the one the Fig. 4b reproduction
// asserts on.
func limitChecks(p *shader.Program, res Resources, lim shader.Limits) []struct {
	what        string
	used, limit int
} {
	return []struct {
		what        string
		used, limit int
	}{
		{"instructions", res.StaticInsts, lim.MaxInstructions},
		{"texture accesses", res.StaticTex, lim.MaxTexInstructions},
		{"dependent texture reads", res.DepTexDepth, lim.MaxDependentTexReads},
		{"temporary registers", res.TempPressure, lim.MaxTemps},
		{"uniform vectors", p.NumUniform, lim.MaxUniformVectors},
	}
}

// CheckLimits reports the program's standing against one profile as
// findings: an error per exceeded limit, and an informational headroom
// line per satisfied one. The error for the instruction limit points at
// the source position of the first over-limit instruction — for an
// unrolled loop that is the loop body, which is where the programmer must
// shrink the kernel (the paper's fix: a smaller block size).
func CheckLimits(p *shader.Program, res Resources, lp LimitProfile) []Finding {
	var fs []Finding
	for _, c := range limitChecks(p, res, lp.Limits) {
		if c.limit <= 0 {
			continue
		}
		if c.used > c.limit {
			f := Finding{
				Code: "limit-exceeded",
				Sev:  SevError,
				Msg: fmt.Sprintf("%s: %d %s exceed the limit of %d",
					lp.Name, c.used, c.what, c.limit),
			}
			if c.what == "instructions" && c.limit < len(p.Insts) {
				f.Pos = p.Insts[c.limit].SrcPos
			}
			fs = append(fs, f)
		} else {
			fs = append(fs, Finding{
				Code: "limit-headroom",
				Sev:  SevInfo,
				Msg: fmt.Sprintf("%s: %d/%d %s used",
					lp.Name, c.used, c.limit, c.what),
			})
		}
	}
	return fs
}
