// Package device defines the hardware/driver profiles of the simulated
// platforms: the Raspberry Pi's Broadcom VideoCore IV and a PowerVR SGX 545
// device, the two tile-based deferred-rendering (TBDR) GPUs the paper
// evaluates, plus a generic profile for tests.
//
// The parameter values are calibrated so the paper's *relative* results
// emerge from the mechanisms in internal/gpu (see EXPERIMENTS.md for the
// calibration notes); absolute times are representative of the device
// class, not measurements.
package device

import (
	"fmt"

	"gles2gpgpu/internal/mem"
	"gles2gpgpu/internal/shader"
	"gles2gpgpu/internal/timing"
)

// VBOUsage mirrors the GLES buffer-usage hints.
type VBOUsage int

// Buffer usage hints.
const (
	UsageStaticDraw VBOUsage = iota
	UsageDynamicDraw
	UsageStreamDraw
)

func (u VBOUsage) String() string {
	switch u {
	case UsageDynamicDraw:
		return "DYNAMIC_DRAW"
	case UsageStreamDraw:
		return "STREAM_DRAW"
	}
	return "STATIC_DRAW"
}

// Profile describes one simulated platform: GPU micro-architecture, memory
// system, driver cost model and display properties. Per-instruction cycle
// costs are not here: they belong to the ISA model (shader.InstCost) and
// are the same on every device.
type Profile struct {
	Name string

	// Shader engine.
	GPUClockHz float64
	// FragmentParallelism is the number of fragment-shader cycles retired
	// per GPU clock across all cores (QPU count × issue width equivalent).
	FragmentParallelism   float64
	VertexCyclesPerVertex int64
	Limits                shader.Limits

	// Tiling micro-architecture (paper Fig. 1).
	TileW, TileH int
	// Deferred enables frame-overlap (TBDR): the fragment pass of frame N
	// runs while frame N+1 is submitted and binned. Dependencies between
	// consecutive frames insert bubbles (paper §II).
	Deferred bool
	// QueueDepth is how many frames the driver lets the CPU run ahead.
	QueueDepth int

	// Memory system.
	MemBus mem.Bus // main-memory bandwidth seen by the tile engine
	// TexBytesPerFetch is the effective main-memory traffic per texture
	// fetch after cache filtering.
	TexBytesPerFetch float64

	// Copy engine for framebuffer→texture transfers (glCopyTexImage2D).
	// VideoCore IV drives a DMA engine at ~1 GB/s (paper §V-B); SGX lacks
	// DMA assistance and the copy runs on a slow blitter path that cannot
	// keep up with rendering.
	CopyEngine mem.Bus
	// CopyBlocksCPU: the copy stalls the submitting CPU thread until done
	// (no completion interrupt in the driver). False = fire and forget.
	CopyBlocksCPU bool
	// CopyStreamsOnOverwrite: the copy engine can stream into live
	// (reused) storage while the producing pass is still rendering. True
	// for a real DMA engine (VideoCore); false for the SGX blit path,
	// whose full-render wait is the paper's "false sharing" (Fig. 5b).
	CopyStreamsOnOverwrite bool

	// Host→GPU upload path (glTexImage2D / glTexSubImage2D / BufferData).
	UploadBus mem.Bus
	// UploadAsync: uploads are handed to the DMA engine so the CPU only
	// pays the submission cost (paper §II Texture Loading: "the copy can
	// be performed by DMA, so that the operation is not blocking").
	UploadAsync bool

	// Driver allocation cost models.
	TexAlloc mem.AllocModel
	BufAlloc mem.AllocModel

	// Driver CPU costs.
	APICallCost     timing.Time // cheap state-setting calls
	DrawSubmitCost  timing.Time // glDrawArrays submission
	UploadIssueCost timing.Time
	// FlushCost is the penalty for serialising the deferred pipeline when
	// consecutive frames depend on each other (the paper's "bubbles").
	FlushCost timing.Time
	// ClientArrayCostPerByte is the extra per-draw cost of non-VBO vertex
	// arrays (implicit copy into GPU memory, paper §II Vertex Processing).
	ClientArrayCostPerByte timing.Time
	// VBOHintCost is the per-draw consistency-maintenance cost by usage
	// hint (STATIC cheapest).
	VBOHintCost map[VBOUsage]timing.Time

	// Windowing system.
	RefreshHz           float64
	DefaultSwapInterval int
	SwapBookkeeping     timing.Time // CPU cost of eglSwapBuffers itself
}

// FragCyclesToTime converts a total fragment-cycle count into GPU time.
func (p *Profile) FragCyclesToTime(cycles int64) timing.Time {
	if cycles <= 0 {
		return 0
	}
	eff := p.GPUClockHz * p.FragmentParallelism
	return timing.Cycles(cycles, eff)
}

// VertexTime returns the vertex-processing + binning time for n vertices.
func (p *Profile) VertexTime(n int) timing.Time {
	return timing.Cycles(int64(n)*p.VertexCyclesPerVertex, p.GPUClockHz)
}

// VideoCoreIV returns the Raspberry Pi profile.
//
// Calibration notes (targets from the paper's Fig. 3/4/5):
//   - 60 Hz vsync with swap interval 1 by default: the baseline for Fig. 3.
//   - A slow ARM11-class CPU driver: draw submission ≈ 1 ms, which caps the
//     pipelined sum rate and makes the fp24 gain small on sum (paper: +1%)
//     while it stays visible on sgemm.
//   - DMA copy engine ≈ 1 GB/s, asynchronous: framebuffer rendering stays
//     competitive (Fig. 4a right, Fig. 4b "FB always wins on VideoCore").
//   - Expensive texture allocation: texture reuse pays off (+15%, Fig. 5a).
//   - Large 64×64 tiles.
func VideoCoreIV() *Profile {
	return &Profile{
		Name:                  "VideoCore IV (Raspberry Pi)",
		GPUClockHz:            250e6,
		FragmentParallelism:   640, // effective lanes × pipelining (calibrated)
		VertexCyclesPerVertex: 80,
		Limits: shader.Limits{
			MaxInstructions:    512,
			MaxTexInstructions: 40,
			MaxTemps:           64,
			MaxUniformVectors:  128,
			MaxVaryingVectors:  8,
			MaxAttributes:      8,
			// The QPU issues texture lookups through a small request FIFO;
			// deep result→coordinate chains stall it and the blob compiler
			// rejects them.
			MaxDependentTexReads: 4,
		},
		TileW: 64, TileH: 64,
		Deferred:               true,
		QueueDepth:             2,
		MemBus:                 mem.Bus{BytesPerSecond: 18e9, Latency: 2 * timing.Microsecond},
		TexBytesPerFetch:       4.0,
		CopyEngine:             mem.Bus{BytesPerSecond: 1.0e9, Latency: 500 * timing.Microsecond},
		CopyBlocksCPU:          false, // DMA engine
		CopyStreamsOnOverwrite: true,
		UploadBus:              mem.Bus{BytesPerSecond: 20e9, Latency: 20 * timing.Microsecond},
		UploadAsync:            true,
		TexAlloc:               mem.AllocModel{Fixed: 40 * timing.Microsecond, PerByte: 100 * timing.Nanosecond},
		BufAlloc:               mem.AllocModel{Fixed: 10 * timing.Microsecond, PerByte: 100 * timing.Nanosecond},
		APICallCost:            4 * timing.Microsecond,
		DrawSubmitCost:         920 * timing.Microsecond, // ARM11 driver overhead
		UploadIssueCost:        300 * timing.Microsecond,
		FlushCost:              5500 * timing.Microsecond,
		ClientArrayCostPerByte: 40 * timing.Nanosecond,
		VBOHintCost: map[VBOUsage]timing.Time{
			UsageStaticDraw:  0,
			UsageDynamicDraw: 8 * timing.Microsecond,
			UsageStreamDraw:  4 * timing.Microsecond,
		},
		RefreshHz:           60,
		DefaultSwapInterval: 1,
		SwapBookkeeping:     80 * timing.Microsecond,
	}
}

// PowerVRSGX545 returns the PowerVR SGX 545 mobile-platform profile.
//
// Calibration notes:
//   - EGL synchronisation is not gated by the 60 Hz panel (the paper: "on
//     SGX [SwapInterval(0)] has no effect, since synchronisation keeps
//     taking place at the default rate which is much higher"): modelled as
//     default swap interval 0 with a non-trivial swap drain cost, so
//     removing eglSwapBuffers still gives the 3.47× of Fig. 3.
//   - No DMA assistance for framebuffer→texture copies: the blit path is
//     slow and stalls the submitting thread (Fig. 4a: texture rendering
//     beats FB by orders of magnitude for sum; Fig. 5b: reuse-induced false
//     sharing drops sgemm to 0.7×).
//   - Small 16×16 tiles; faster host CPU (Atom/Cortex-A class).
//   - Cheap texture allocation: input-texture reuse buys nothing and the
//     write-after-read wait makes it slightly slower (Fig. 5a: −2…−7%).
func PowerVRSGX545() *Profile {
	return &Profile{
		Name:                  "PowerVR SGX 545",
		GPUClockHz:            200e6,
		FragmentParallelism:   512, // USSE2 pipes × pipelining (calibrated)
		VertexCyclesPerVertex: 40,
		Limits: shader.Limits{
			MaxInstructions:    512,
			MaxTexInstructions: 40,
			MaxTemps:           64,
			MaxUniformVectors:  64,
			MaxVaryingVectors:  8,
			MaxAttributes:      8,
			// USSE pre-schedules texture iterations; dependent reads fall
			// back to in-shader fetches with a bounded chain depth.
			MaxDependentTexReads: 8,
		},
		TileW: 16, TileH: 16,
		Deferred:               true,
		QueueDepth:             2,
		MemBus:                 mem.Bus{BytesPerSecond: 8e9, Latency: 1 * timing.Microsecond},
		TexBytesPerFetch:       4.0,
		CopyEngine:             mem.Bus{BytesPerSecond: 900e6, Latency: 300 * timing.Microsecond},
		CopyBlocksCPU:          true, // no DMA: the driver thread babysits the blit
		UploadBus:              mem.Bus{BytesPerSecond: 1.2e9, Latency: 8 * timing.Microsecond},
		UploadAsync:            false,
		TexAlloc:               mem.AllocModel{Fixed: 100 * timing.Microsecond, PerByte: 400 * timing.Nanosecond},
		BufAlloc:               mem.AllocModel{Fixed: 20 * timing.Microsecond, PerByte: 80 * timing.Nanosecond},
		APICallCost:            1 * timing.Microsecond,
		DrawSubmitCost:         120 * timing.Microsecond,
		UploadIssueCost:        15 * timing.Microsecond,
		FlushCost:              1000 * timing.Microsecond,
		ClientArrayCostPerByte: 40 * timing.Nanosecond,
		VBOHintCost: map[VBOUsage]timing.Time{
			UsageStaticDraw:  0,
			UsageDynamicDraw: 3 * timing.Microsecond,
			UsageStreamDraw:  1 * timing.Microsecond,
		},
		RefreshHz:           60,
		DefaultSwapInterval: 0, // panel sync decoupled from EGL pacing
		SwapBookkeeping:     3500 * timing.Microsecond,
	}
}

// ByName returns a fresh profile for a short device name: "vc4", "sgx" or
// "generic" (matching the cmd flag vocabulary), or the profile's full Name.
// Every call constructs a new *Profile; callers that need engines to share
// compiled programs must share the returned instance, not call ByName twice.
func ByName(name string) (*Profile, error) {
	switch name {
	case "vc4", VideoCoreIV().Name:
		return VideoCoreIV(), nil
	case "sgx", PowerVRSGX545().Name:
		return PowerVRSGX545(), nil
	case "generic", Generic().Name:
		return Generic(), nil
	}
	return nil, fmt.Errorf("device: unknown device %q (want vc4, sgx or generic)", name)
}

// Names lists the short names ByName accepts, in presentation order.
func Names() []string { return []string{"vc4", "sgx", "generic"} }

// Generic returns a fast, permissive profile for unit tests: negligible
// driver costs, no vsync gating, huge limits.
func Generic() *Profile {
	return &Profile{
		Name:                  "generic-test",
		GPUClockHz:            1e9,
		FragmentParallelism:   1024,
		VertexCyclesPerVertex: 10,
		Limits:                shader.DefaultLimits(),
		TileW:                 32, TileH: 32,
		Deferred:               true,
		QueueDepth:             2,
		MemBus:                 mem.Bus{BytesPerSecond: 32e9},
		TexBytesPerFetch:       1.0,
		CopyEngine:             mem.Bus{BytesPerSecond: 16e9},
		UploadBus:              mem.Bus{BytesPerSecond: 16e9},
		UploadAsync:            false,
		APICallCost:            10 * timing.Nanosecond,
		DrawSubmitCost:         100 * timing.Nanosecond,
		UploadIssueCost:        10 * timing.Nanosecond,
		FlushCost:              1 * timing.Microsecond,
		ClientArrayCostPerByte: 1 * timing.Nanosecond,
		VBOHintCost: map[VBOUsage]timing.Time{
			UsageStaticDraw: 0, UsageDynamicDraw: 0, UsageStreamDraw: 0,
		},
		RefreshHz:           60,
		DefaultSwapInterval: 0,
		SwapBookkeeping:     10 * timing.Nanosecond,
	}
}
