package device

import (
	"testing"

	"gles2gpgpu/internal/timing"
)

func profiles() []*Profile {
	return []*Profile{VideoCoreIV(), PowerVRSGX545(), Generic()}
}

func TestProfileInvariants(t *testing.T) {
	for _, p := range profiles() {
		if p.Name == "" {
			t.Error("unnamed profile")
		}
		if p.GPUClockHz <= 0 || p.FragmentParallelism <= 0 {
			t.Errorf("%s: shader engine rates invalid", p.Name)
		}
		if p.TileW <= 0 || p.TileH <= 0 {
			t.Errorf("%s: tile size invalid", p.Name)
		}
		if p.MemBus.BytesPerSecond <= 0 {
			t.Errorf("%s: memory bus unset", p.Name)
		}
		if p.QueueDepth < 1 {
			t.Errorf("%s: queue depth %d", p.Name, p.QueueDepth)
		}
		for _, u := range []VBOUsage{UsageStaticDraw, UsageDynamicDraw, UsageStreamDraw} {
			if _, ok := p.VBOHintCost[u]; !ok {
				t.Errorf("%s: missing VBO hint cost for %v", p.Name, u)
			}
		}
		// Limits must accommodate the paper's block-16 sgemm kernel
		// (33 texture fetches) but reject block 32 (65 fetches).
		if p.Limits.MaxTexInstructions < 33 {
			t.Errorf("%s: tex limit %d rejects the paper's block-16 kernel", p.Name, p.Limits.MaxTexInstructions)
		}
		if p.Name != Generic().Name && p.Limits.MaxTexInstructions >= 65 {
			t.Errorf("%s: tex limit %d accepts block 32, contradicting the paper", p.Name, p.Limits.MaxTexInstructions)
		}
		if p.Limits.MaxVaryingVectors < 8 || p.Limits.MaxAttributes < 8 {
			t.Errorf("%s: below GLES2 minima", p.Name)
		}
	}
}

func TestFragCyclesToTime(t *testing.T) {
	p := Generic() // 1 GHz × 1024 lanes
	// 1024e6 cycles / (1e9*1024 cycles/s) = 1 ms.
	got := p.FragCyclesToTime(1024e6)
	want := timing.Millisecond
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > timing.Nanosecond {
		t.Errorf("FragCyclesToTime = %v, want ~%v", got, want)
	}
	if p.FragCyclesToTime(0) != 0 || p.FragCyclesToTime(-5) != 0 {
		t.Error("non-positive cycles should cost nothing")
	}
	// Tiny work still takes at least 1 ps.
	if p.FragCyclesToTime(1) < 1 {
		t.Error("single cycle rounded to zero")
	}
}

func TestVertexTime(t *testing.T) {
	p := VideoCoreIV()
	one := p.VertexTime(1)
	six := p.VertexTime(6)
	if one <= 0 || six < 6*one-timing.Nanosecond {
		t.Errorf("vertex times: 1 -> %v, 6 -> %v", one, six)
	}
}

func TestUsageStrings(t *testing.T) {
	if UsageStaticDraw.String() != "STATIC_DRAW" ||
		UsageDynamicDraw.String() != "DYNAMIC_DRAW" ||
		UsageStreamDraw.String() != "STREAM_DRAW" {
		t.Error("usage names wrong")
	}
}

func TestPaperCalibrationAnchors(t *testing.T) {
	vc, sgx := VideoCoreIV(), PowerVRSGX545()
	// VideoCore: 60 Hz default presentation gate; SGX: decoupled.
	if vc.DefaultSwapInterval != 1 {
		t.Error("VideoCore must default to swap interval 1 (Fig. 3 baseline)")
	}
	if sgx.DefaultSwapInterval != 0 {
		t.Error("SGX default pacing must not be vsync-gated (paper §V-B)")
	}
	// VideoCore tiles 64×64 vs SGX 16×16 (paper §V-B).
	if vc.TileW != 64 || sgx.TileW != 16 {
		t.Errorf("tile sizes: vc=%d sgx=%d", vc.TileW, sgx.TileW)
	}
	// VideoCore's DMA copy engine runs ~1 GB/s (paper cites [6]) and can
	// stream; SGX's blit path is slower and cannot.
	if vc.CopyEngine.BytesPerSecond < 0.9e9 || vc.CopyEngine.BytesPerSecond > 1.1e9 {
		t.Errorf("VideoCore DMA = %g B/s, paper says ~1 GB/s", vc.CopyEngine.BytesPerSecond)
	}
	if sgx.CopyEngine.BytesPerSecond >= vc.CopyEngine.BytesPerSecond {
		t.Error("SGX copy path must be slower than VideoCore's DMA")
	}
	if !vc.CopyStreamsOnOverwrite || sgx.CopyStreamsOnOverwrite {
		t.Error("streaming-on-overwrite capability must differ (Fig. 5b)")
	}
	if !vc.UploadAsync || sgx.UploadAsync {
		t.Error("upload asynchrony must differ (paper §II Texture Loading)")
	}
	// VideoCore's ARM11-class driver CPU is far slower per draw.
	if vc.DrawSubmitCost < 4*sgx.DrawSubmitCost {
		t.Errorf("driver CPU costs: vc=%v sgx=%v", vc.DrawSubmitCost, sgx.DrawSubmitCost)
	}
}
