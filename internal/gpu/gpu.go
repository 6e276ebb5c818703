// Package gpu models the execution timing of a tile-based deferred
// rendering (TBDR) GPU and its driver: render-job scheduling with frame
// overlap, dependency-induced pipeline bubbles, tile load/store traffic,
// asynchronous copy engines and host uploads.
//
// The model is deliberately queue-theoretic rather than cycle-accurate:
// work is scheduled on busy-until resource timelines (internal/timing), so
// simulating 10 000 kernel launches costs 10 000 scheduling operations, not
// 10 000 simulated frames of per-pixel work. Functional execution (what the
// pixels actually compute) lives in internal/gles and runs once per draw;
// this package only decides *when* things happen.
//
// The mechanisms below are the ones the paper identifies (§II):
//
//   - Deferred overlap: the fragment pass of frame N runs while frame N+1
//     is submitted and binned. Throughput in steady state is the maximum of
//     the stage times, not their sum.
//   - Bubbles: when frame N+1 reads a resource the immediately-preceding
//     frame wrote, the driver must flush, serialising the two frames and
//     adding FlushCost.
//   - Tile traffic: unless the target was cleared/discarded, every covered
//     tile is read back from memory before shading (paper Fig. 1 step 6)
//     and written back after (step 3/5).
//   - Copy engines: framebuffer→texture copies wait for rendering to
//     complete (implicit synchronisation), then run on a DMA engine
//     (VideoCore) or a slow blocking path (SGX).
//   - Write-after-read hazards: overwriting a resource still being read
//     (texture reuse, framebuffer reuse during an in-flight copy) stalls —
//     the paper's "false sharing" (§V-B, Fig. 5b).
package gpu

import (
	"fmt"

	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/mem"
	"gles2gpgpu/internal/timing"
)

// ResID identifies a schedulable memory resource (texture storage, a
// surface buffer, a vertex buffer).
type ResID int64

// resState tracks a resource's scheduling state.
type resState struct {
	label         string
	readyAt       timing.Time // last write (render/copy/upload) completes
	writerJob     int64       // FP job id of the last writer (0 = none/not a job)
	writerFPStart timing.Time // when the producing render pass started
	lastRead      timing.Time // last read (sampling, copy source) completes
	cleared       bool        // contents invalidated: next draw skips tile load
}

// Stats accumulates observable behaviour for tests and reports.
type Stats struct {
	Draws           int64
	Bubbles         int64 // draws serialised due to consecutive-frame deps
	WARStalls       int64 // writes delayed by in-flight readers
	CopyOps         int64
	CopyBytes       int64
	UploadOps       int64
	UploadBytes     int64
	TileLoads       int64
	TileStores      int64
	FragmentsShaded int64
}

// Machine is one simulated GPU + driver instance. Not safe for concurrent
// use (the simulation is single-threaded by design).
type Machine struct {
	Prof *device.Profile
	CPU  *timing.Clock
	// VSyncClock paces the display.
	VSyncClock *timing.VSync
	Trace      *timing.Trace
	Stats      Stats

	vp      *timing.Resource
	fp      *timing.Resource
	copyEng *mem.DMA
	upEng   *mem.DMA

	nextRes   ResID
	resources map[ResID]*resState

	jobCounter  int64
	lastFPJob   int64
	lastFPEnd   timing.Time
	outstanding []timing.Time // FP completion times of in-flight frames
}

// The in-flight frame list is trimmed to its last outstandingKeep entries
// once it grows past outstandingCap.
const outstandingCap, outstandingKeep = 64, 8

// New returns an idle machine for the given profile.
func New(prof *device.Profile) *Machine {
	return &Machine{
		Prof:       prof,
		CPU:        timing.NewClock(),
		VSyncClock: timing.NewVSync(prof.RefreshHz),
		Trace:      timing.NewTrace(1 << 16),
		vp:         timing.NewResource("vp"),
		fp:         timing.NewResource("fp"),
		copyEng:    mem.NewDMA("copy", prof.CopyEngine),
		upEng:      mem.NewDMA("upload", prof.UploadBus),
		resources:  make(map[ResID]*resState),
	}
}

// NewResource registers a schedulable resource and returns its handle.
func (m *Machine) NewResource(label string) ResID {
	m.nextRes++
	m.resources[m.nextRes] = &resState{label: label}
	return m.nextRes
}

// FreeResource forgets a resource.
func (m *Machine) FreeResource(id ResID) { delete(m.resources, id) }

func (m *Machine) res(id ResID) *resState {
	r, ok := m.resources[id]
	if !ok {
		r = &resState{label: fmt.Sprintf("res%d", id)}
		m.resources[id] = r
	}
	return r
}

// ReadyAt reports when the resource's last write completes.
func (m *Machine) ReadyAt(id ResID) timing.Time { return m.res(id).readyAt }

// writableAt reports when the resource can be overwritten: after its last
// write AND after all in-flight readers (WAR hazard).
func (m *Machine) writableAt(id ResID) timing.Time {
	r := m.res(id)
	return timing.Max(r.readyAt, r.lastRead)
}

// Clear marks a target's contents invalid: the next draw to it skips the
// tile-load readback and carries no dependency on the previous contents
// (the glClear / EXT_discard_framebuffer optimisation, paper §II).
func (m *Machine) Clear(id ResID) {
	m.CPU.Advance(m.Prof.APICallCost)
	m.res(id).cleared = true
}

// Upload models a host→GPU-memory transfer of n bytes into dst
// (glTexImage2D, glTexSubImage2D, glBufferData data phase).
//
// overwrite=true models sub-image updates into live storage: the transfer
// must wait for in-flight readers of dst (WAR). Fresh allocations pass
// false — new storage has no readers.
func (m *Machine) Upload(dst ResID, n int, overwrite bool) {
	m.CPU.Advance(m.Prof.UploadIssueCost)
	earliest := m.CPU.Now()
	if overwrite {
		w := m.writableAt(dst)
		if w > earliest {
			m.Stats.WARStalls++
			earliest = w
		}
	}
	m.Stats.UploadOps++
	m.Stats.UploadBytes += int64(n)
	if m.Prof.UploadAsync {
		start, end := m.upEng.Schedule(earliest, n)
		if m.Trace.Enabled() {
			m.Trace.Add("upload", fmt.Sprintf("upload %dB -> %s", n, m.res(dst).label), start, end)
		}
		r := m.res(dst)
		r.readyAt = end
		r.writerJob = 0
		return
	}
	// Synchronous: the CPU performs the copy.
	m.CPU.AdvanceTo(earliest)
	dur := m.Prof.UploadBus.TransferTime(n)
	start := m.CPU.Now()
	m.CPU.Advance(dur)
	if m.Trace.Enabled() {
		m.Trace.Add("cpu", fmt.Sprintf("upload %dB -> %s", n, m.res(dst).label), start, m.CPU.Now())
	}
	r := m.res(dst)
	r.readyAt = m.CPU.Now()
	r.writerJob = 0
}

// AllocCost charges the CPU for a driver allocation.
func (m *Machine) AllocCost(d timing.Time) { m.CPU.Advance(d) }

// DrawJob describes one render pass (for GPGPU: one kernel launch drawing a
// viewport-filling quad; the model supports arbitrary covered-pixel counts).
type DrawJob struct {
	Target ResID
	// TargetW/H are the render-target dimensions in pixels.
	TargetW, TargetH int
	// CoveredPixels is the number of fragments shaded.
	CoveredPixels int64
	// FragCycles is the total shader-core cycle count across all fragments.
	FragCycles int64
	// TexFetches is the total number of texture fetches issued.
	TexFetches int64
	// BytesPerPixelOut is the store footprint per covered pixel (4 for
	// RGBA8888; 3 when the fp24 kernels mask the alpha channel, the
	// paper's 25% bandwidth saving).
	BytesPerPixelOut int
	// Reads lists sampled textures.
	Reads []ResID
	// VerticesReady is when the vertex data is available (buffer uploads).
	VerticesReady timing.Time
	// VertexCount for the vertex stage.
	VertexCount int
	// ExtraCPUCost is added to the draw submission cost (client-side
	// arrays, usage-hint consistency work).
	ExtraCPUCost timing.Time
}

// DrawResult reports the scheduling outcome.
type DrawResult struct {
	VPStart, VPEnd timing.Time
	FPStart, FPEnd timing.Time
	Bubble         bool
}

// Draw schedules one render job and returns its timing.
func (m *Machine) Draw(job DrawJob) DrawResult {
	m.Stats.Draws++
	m.jobCounter++
	jobID := m.jobCounter

	// Driver submission cost, plus frame-queue backpressure: the CPU may
	// run at most QueueDepth frames ahead of the GPU.
	m.CPU.Advance(m.Prof.DrawSubmitCost + job.ExtraCPUCost)
	if depth := m.Prof.QueueDepth; depth > 0 && len(m.outstanding) >= depth {
		wait := m.outstanding[len(m.outstanding)-depth]
		m.CPU.AdvanceTo(wait)
	}

	// Vertex processing / binning.
	vpDur := m.Prof.VertexTime(job.VertexCount)
	vpStart, vpEnd := m.vp.Acquire(timing.Max(m.CPU.Now(), job.VerticesReady), vpDur)

	// Fragment-stage dependencies.
	depStart := vpEnd
	bubble := false
	for _, rid := range job.Reads {
		r := m.res(rid)
		if r.readyAt > depStart {
			depStart = r.readyAt
		}
		// Consecutive-frame dependency: the deferred pipeline cannot
		// overlap, the driver flushes (paper §II "bubbles").
		if r.writerJob != 0 && r.writerJob == m.lastFPJob {
			bubble = true
		}
	}
	target := m.res(job.Target)
	preserved := !target.cleared
	if preserved {
		// The previous contents must be loaded per tile; rendering on top
		// of the immediately-preceding frame's output is also a
		// consecutive-frame dependency.
		if target.readyAt > depStart {
			depStart = target.readyAt
		}
		if target.writerJob != 0 && target.writerJob == m.lastFPJob {
			bubble = true
		}
	}
	// WAR: the target may still be being read (e.g. an in-flight copy to
	// texture from this framebuffer — paper: "all GPU operations that
	// modify the framebuffer need to be serialised until the transfer is
	// complete").
	if target.lastRead > depStart {
		m.Stats.WARStalls++
		depStart = target.lastRead
	}
	if bubble {
		m.Stats.Bubbles++
		flushAt := m.lastFPEnd + m.Prof.FlushCost
		if flushAt > depStart {
			depStart = flushAt
		}
	}

	// Fragment-stage duration: shader compute + memory traffic.
	tiles := tilesCovered(job.TargetW, job.TargetH, m.Prof.TileW, m.Prof.TileH)
	var loadBytes int64
	if preserved {
		loadBytes = int64(job.TargetW) * int64(job.TargetH) * 4
		m.Stats.TileLoads += int64(tiles)
	}
	bpp := job.BytesPerPixelOut
	if bpp <= 0 {
		bpp = 4
	}
	storeBytes := job.CoveredPixels * int64(bpp)
	texBytes := int64(float64(job.TexFetches) * m.Prof.TexBytesPerFetch)
	m.Stats.TileStores += int64(tiles)
	m.Stats.FragmentsShaded += job.CoveredPixels

	// Compute and memory streams overlap in the tile engine; the pass is
	// bound by whichever dominates.
	compute := m.Prof.FragCyclesToTime(job.FragCycles)
	memTime := m.Prof.MemBus.TransferTime(int(loadBytes + storeBytes + texBytes))
	fpDur := timing.Max(compute, memTime)

	fpStart, fpEnd := m.fp.Acquire(timing.Max(depStart, m.lastFPEnd), fpDur)
	if m.Trace.Enabled() {
		m.Trace.Add("fp", fmt.Sprintf("draw#%d -> %s", jobID, target.label), fpStart, fpEnd)
	}

	// Bookkeeping.
	for _, rid := range job.Reads {
		r := m.res(rid)
		if fpEnd > r.lastRead {
			r.lastRead = fpEnd
		}
	}
	target.readyAt = fpEnd
	target.writerJob = jobID
	target.writerFPStart = fpStart
	target.cleared = false
	m.lastFPJob = jobID
	m.lastFPEnd = fpEnd
	m.outstanding = append(m.outstanding, fpEnd)
	if len(m.outstanding) > outstandingCap {
		m.outstanding = append(m.outstanding[:0], m.outstanding[len(m.outstanding)-outstandingKeep:]...)
	}

	if !m.Prof.Deferred {
		// Immediate-mode ablation: the CPU waits for each frame.
		m.CPU.AdvanceTo(fpEnd)
	}
	return DrawResult{VPStart: vpStart, VPEnd: vpEnd, FPStart: fpStart, FPEnd: fpEnd, Bubble: bubble}
}

func tilesCovered(w, h, tw, th int) int {
	if tw <= 0 || th <= 0 {
		return 1
	}
	tx := (w + tw - 1) / tw
	ty := (h + th - 1) / th
	if tx < 1 {
		tx = 1
	}
	if ty < 1 {
		ty = 1
	}
	return tx * ty
}

// Copy models glCopyTexImage2D / glCopyTexSubImage2D: src (a framebuffer
// attachment) is transferred into dst texture storage.
//
// Into fresh storage (overwrite=false) the copy engine *streams behind the
// renderer*: a tile-based GPU finishes tiles progressively and the engine
// transfers completed tiles while later ones are still shading, so a copy
// behind a long render pass costs almost nothing extra (paper §V-B: the
// DMA controller "offloads the overhead of the copy … hiding its latency";
// Fig. 4b: "the copy to texture memory can be efficiently overlapped with
// computation"). The transfer can still not *finish* before rendering does.
//
// Into reused storage (overwrite=true, the Sub-image path) the driver must
// both wait for in-flight readers of dst (write-after-read false sharing,
// Fig. 5b) and forgo streaming — it cannot risk scribbling over storage the
// GPU may still reference, so the transfer starts only after rendering
// fully completes.
//
// A copy transfers data but carries no shader work, so it does not count as
// a "previous frame" for the deferred pipeline's bubble detection: waiting
// for a copy is already priced by readyAt.
func (m *Machine) Copy(src, dst ResID, n int, overwrite bool) {
	m.CPU.Advance(m.Prof.APICallCost)
	s := m.res(src)
	earliest := m.CPU.Now()
	if overwrite {
		if w := m.writableAt(dst); w > earliest {
			m.Stats.WARStalls++
			earliest = w
		}
		if m.Prof.CopyStreamsOnOverwrite {
			// A true DMA engine synchronises with the renderer and can
			// stream into live storage (VideoCore IV).
			earliest = timing.Max(earliest, s.writerFPStart)
		} else {
			// The blit path cannot risk scribbling over storage the GPU
			// may still reference: wait for the full render (SGX — the
			// paper's false sharing, Fig. 5b).
			earliest = timing.Max(earliest, s.readyAt)
		}
	} else {
		// Stream behind the producing pass.
		earliest = timing.Max(earliest, s.writerFPStart)
	}
	m.Stats.CopyOps++
	m.Stats.CopyBytes += int64(n)
	dur := m.Prof.CopyEngine.TransferTime(n)
	// The last tile cannot transfer before it is rendered: extend the
	// occupancy so the copy never completes before the source does.
	if earliest+dur < s.readyAt+m.Prof.CopyEngine.Latency {
		dur = s.readyAt + m.Prof.CopyEngine.Latency - earliest
	}
	start, end := m.copyEng.ScheduleDuration(earliest, dur)
	if m.Trace.Enabled() {
		m.Trace.Add("copy", fmt.Sprintf("copy %dB %s->%s", n, s.label, m.res(dst).label), start, end)
	}
	if m.Prof.CopyBlocksCPU {
		m.CPU.AdvanceTo(end)
	}
	if end > s.lastRead {
		s.lastRead = end
	}
	d := m.res(dst)
	d.readyAt = end
	d.writerJob = 0
}

// WaitFor blocks the CPU until the resource's last write completes
// (glFinish on a single target, the implicit wait in eglSwapBuffers).
func (m *Machine) WaitFor(id ResID) {
	m.CPU.AdvanceTo(m.res(id).readyAt)
}

// WaitAll drains the whole pipeline (glFinish / glReadPixels semantics).
func (m *Machine) WaitAll() {
	t := m.CPU.Now()
	t = timing.Max(t, m.fp.FreeAt())
	t = timing.Max(t, m.vp.FreeAt())
	t = timing.Max(t, m.copyEng.FreeAt())
	t = timing.Max(t, m.upEng.FreeAt())
	m.CPU.AdvanceTo(t)
	m.outstanding = m.outstanding[:0]
}

// Readback models glReadPixels: drain, then a synchronous CPU copy.
func (m *Machine) Readback(src ResID, n int) {
	m.WaitFor(src)
	m.WaitAll() // GLES2 ReadPixels implies a full finish on these drivers
	start := m.CPU.Now()
	m.CPU.Advance(m.Prof.UploadBus.TransferTime(n))
	if m.Trace.Enabled() {
		m.Trace.Add("cpu", fmt.Sprintf("readpixels %dB", n), start, m.CPU.Now())
	}
	r := m.res(src)
	if m.CPU.Now() > r.lastRead {
		r.lastRead = m.CPU.Now()
	}
}

// MarkRead records an external read of a resource completing at t (used by
// the functional layer when it consumes data outside Draw/Copy paths).
func (m *Machine) MarkRead(id ResID, t timing.Time) {
	r := m.res(id)
	if t > r.lastRead {
		r.lastRead = t
	}
}

// MarkWritten records an external write completing at t.
func (m *Machine) MarkWritten(id ResID, t timing.Time) {
	r := m.res(id)
	if t > r.readyAt {
		r.readyAt = t
	}
	r.writerJob = 0
}

// Now returns the CPU clock reading.
func (m *Machine) Now() timing.Time { return m.CPU.Now() }

// FPBusy reports accumulated fragment-engine busy time (for utilisation
// reports and ablation benches).
func (m *Machine) FPBusy() timing.Time { return m.fp.BusyTotal() }

// CopyBusy reports accumulated copy-engine busy time.
func (m *Machine) CopyBusy() timing.Time { return m.copyEng.BusyTotal() }

// Reset returns the machine to time zero, keeping registered resources but
// clearing their scheduling state.
func (m *Machine) Reset() {
	m.CPU.Reset()
	m.vp.Reset()
	m.fp.Reset()
	m.copyEng.Reset()
	m.upEng.Reset()
	m.Trace.Reset()
	m.Stats = Stats{}
	m.jobCounter = 0
	m.lastFPJob = 0
	m.lastFPEnd = 0
	m.outstanding = m.outstanding[:0]
	for _, r := range m.resources {
		r.readyAt, r.writerJob, r.lastRead, r.cleared = 0, 0, 0, false
	}
}
