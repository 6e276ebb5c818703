package gpu

import (
	"slices"
	"testing"

	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/mem"
	"gles2gpgpu/internal/timing"
)

// testProfile returns a deterministic profile with simple round numbers:
// fragment work dominates, driver costs are visible but small.
func testProfile() *device.Profile {
	p := device.Generic()
	p.GPUClockHz = 1e9
	p.FragmentParallelism = 1 // 1 cycle = 1 ns of fragment time
	p.VertexCyclesPerVertex = 100
	p.QueueDepth = 2
	p.DrawSubmitCost = 10 * timing.Microsecond
	p.FlushCost = 500 * timing.Microsecond
	p.MemBus = mem.Bus{BytesPerSecond: 4e9}
	p.CopyEngine = mem.Bus{BytesPerSecond: 1e9, Latency: 10 * timing.Microsecond}
	p.UploadBus = mem.Bus{BytesPerSecond: 1e9, Latency: 5 * timing.Microsecond}
	return p
}

// drawJob builds a 1 ms fragment-stage job writing to target.
func drawJob(target ResID, reads ...ResID) DrawJob {
	return DrawJob{
		Target:        target,
		TargetW:       256,
		TargetH:       256,
		CoveredPixels: 256 * 256,
		FragCycles:    1_000_000, // 1 ms at 1 GHz ×1
		VertexCount:   6,
		Reads:         reads,
	}
}

func TestDeferredOverlapThroughput(t *testing.T) {
	// Independent frames to alternating cleared targets: steady-state
	// throughput must approach the FP time, not CPU+VP+FP.
	m := New(testProfile())
	a := m.NewResource("texA")
	b := m.NewResource("texB")
	in := m.NewResource("input")
	const frames = 50
	var lastEnd timing.Time
	for i := 0; i < frames; i++ {
		tgt := a
		if i%2 == 1 {
			tgt = b
		}
		m.Clear(tgt)
		r := m.Draw(drawJob(tgt, in))
		lastEnd = r.FPEnd
	}
	perFrame := lastEnd / frames
	// FP dominates at ~1.07 ms (compute + store traffic); allow 20% slack
	// but demand it is clearly below the serialised CPU+VP+FP sum.
	fpOnly := 1070 * timing.Microsecond
	if perFrame > fpOnly*12/10 {
		t.Errorf("pipelined per-frame = %v, want ≈ %v (overlap broken)", perFrame, fpOnly)
	}
	if m.Stats.Bubbles != 0 {
		t.Errorf("independent frames produced %d bubbles", m.Stats.Bubbles)
	}
}

func TestConsecutiveDependencyBubble(t *testing.T) {
	// Frame N+1 samples what frame N wrote: every frame must serialise
	// with the flush penalty.
	prof := testProfile()
	m := New(prof)
	a := m.NewResource("texA")
	b := m.NewResource("texB")
	const frames = 20
	var lastEnd timing.Time
	cur, nxt := a, b
	for i := 0; i < frames; i++ {
		m.Clear(nxt)
		r := m.Draw(drawJob(nxt, cur))
		lastEnd = r.FPEnd
		cur, nxt = nxt, cur
	}
	if int(m.Stats.Bubbles) < frames-1 {
		t.Fatalf("bubbles = %d, want >= %d", m.Stats.Bubbles, frames-1)
	}
	perFrame := lastEnd / frames
	// Serialised: FP + flush ≈ 1.07 ms + 0.5 ms.
	want := 1570 * timing.Microsecond
	if perFrame < want*9/10 {
		t.Errorf("dependent per-frame = %v, want >= ~%v (flush not applied)", perFrame, want)
	}
}

func TestClearRemovesTargetDependencyAndTileLoad(t *testing.T) {
	m := New(testProfile())
	tgt := m.NewResource("fb")
	in := m.NewResource("input")
	// Without clear: rendering over the previous frame's output.
	var endNoClear timing.Time
	for i := 0; i < 10; i++ {
		r := m.Draw(drawJob(tgt, in))
		endNoClear = r.FPEnd
	}
	loads := m.Stats.TileLoads
	bubbles := m.Stats.Bubbles
	if loads == 0 {
		t.Error("preserved target did not load tiles")
	}
	if bubbles == 0 {
		t.Error("rendering over previous output did not serialise")
	}
	// With clear: no loads, no bubbles.
	m2 := New(testProfile())
	tgt2 := m2.NewResource("fb")
	in2 := m2.NewResource("input")
	var endClear timing.Time
	for i := 0; i < 10; i++ {
		m2.Clear(tgt2)
		r := m2.Draw(drawJob(tgt2, in2))
		endClear = r.FPEnd
	}
	if m2.Stats.TileLoads != 0 {
		t.Errorf("cleared target loaded %d tiles", m2.Stats.TileLoads)
	}
	if m2.Stats.Bubbles != 0 {
		t.Errorf("cleared target produced %d bubbles", m2.Stats.Bubbles)
	}
	if endClear >= endNoClear {
		t.Errorf("clear did not speed up: %v vs %v", endClear, endNoClear)
	}
}

func TestCopyStreamsBehindLongRender(t *testing.T) {
	// A copy from a long render pass into fresh storage finishes just
	// after the pass; into reused storage it starts only after the pass.
	prof := testProfile()
	m := New(prof)
	fb := m.NewResource("fb")
	fresh := m.NewResource("texFresh")
	m.Clear(fb)
	job := drawJob(fb)
	job.FragCycles = 50_000_000 // 50 ms pass
	r := m.Draw(job)
	m.Copy(fb, fresh, 1<<20, false) // 1 MB ≈ 1 ms on the copy engine
	freshReady := m.ReadyAt(fresh)
	tail := prof.CopyEngine.Latency
	if freshReady > r.FPEnd+tail+100*timing.Microsecond {
		t.Errorf("streamed copy ready at %v, want ≈ FP end %v", freshReady, r.FPEnd)
	}

	m2 := New(prof)
	fb2 := m2.NewResource("fb")
	reused := m2.NewResource("texReused")
	m2.Clear(fb2)
	r2 := m2.Draw(job)
	m2.Copy(fb2, reused, 1<<20, true)
	reusedReady := m2.ReadyAt(reused)
	fullCopy := prof.CopyEngine.TransferTime(1 << 20)
	if reusedReady < r2.FPEnd+fullCopy {
		t.Errorf("overwrite copy ready at %v, want >= FP end %v + copy %v", reusedReady, r2.FPEnd, fullCopy)
	}
}

func TestCopyWARBlocksNextDrawToSource(t *testing.T) {
	// While the copy reads the framebuffer, the next draw to it must wait
	// (paper: GPU operations modifying the framebuffer serialise until the
	// transfer completes).
	prof := testProfile()
	prof.CopyEngine = mem.Bus{BytesPerSecond: 100e6} // slow: 10 ms/MB
	m := New(prof)
	fb := m.NewResource("fb")
	tex := m.NewResource("tex")
	m.Clear(fb)
	m.Draw(drawJob(fb))
	m.Copy(fb, tex, 1<<20, false)
	copyEnd := m.ReadyAt(tex)
	m.Clear(fb)
	r := m.Draw(drawJob(fb))
	if r.FPStart < copyEnd {
		t.Errorf("draw started at %v while copy reads framebuffer until %v", r.FPStart, copyEnd)
	}
	if m.Stats.WARStalls == 0 {
		t.Error("WAR stall not recorded")
	}
}

func TestUploadWAROverwrite(t *testing.T) {
	prof := testProfile()
	m := New(prof)
	tex := m.NewResource("input")
	tgt := m.NewResource("out")
	m.Upload(tex, 1<<20, false)
	m.Clear(tgt)
	job := drawJob(tgt, tex)
	job.FragCycles = 10_000_000 // 10 ms pass: reads tex until FPEnd
	r := m.Draw(job)
	// Fresh upload (into different storage) proceeds while the GPU reads
	// tex.
	tex2 := m.NewResource("input2")
	m.Upload(tex2, 1<<20, false)
	if got := m.ReadyAt(tex2); got >= r.FPEnd {
		t.Errorf("fresh upload waited for unrelated reader: ready %v >= %v", got, r.FPEnd)
	}
	// Overwriting upload must wait for the reader.
	m.Upload(tex, 1<<20, true)
	if got := m.ReadyAt(tex); got < r.FPEnd {
		t.Errorf("overwriting upload ready at %v, want >= reader end %v", got, r.FPEnd)
	}
}

func TestUploadAsyncVsSync(t *testing.T) {
	prof := testProfile()
	prof.UploadAsync = false
	m := New(prof)
	tex := m.NewResource("t")
	before := m.Now()
	m.Upload(tex, 8<<20, false) // 8 MB ≈ 8 ms
	syncCost := m.Now() - before

	prof2 := testProfile()
	prof2.UploadAsync = true
	m2 := New(prof2)
	tex2 := m2.NewResource("t")
	before2 := m2.Now()
	m2.Upload(tex2, 8<<20, false)
	asyncCost := m2.Now() - before2

	if asyncCost >= syncCost/4 {
		t.Errorf("async upload CPU cost %v not far below sync %v", asyncCost, syncCost)
	}
	if m2.ReadyAt(tex2) < m2.Prof.UploadBus.TransferTime(8<<20) {
		t.Error("async upload data ready too early")
	}
}

func TestQueueDepthBackpressure(t *testing.T) {
	// With queue depth 2, the CPU cannot run more than ~2 frames ahead.
	m := New(testProfile())
	tgt := m.NewResource("t")
	in := m.NewResource("in")
	var last DrawResult
	for i := 0; i < 10; i++ {
		m.Clear(tgt)
		last = m.Draw(drawJob(tgt, in))
	}
	ahead := last.FPEnd - m.Now()
	// At most ~2 frames of FP work ahead.
	if ahead > 3*1100*timing.Microsecond {
		t.Errorf("CPU ran %v ahead of GPU with queue depth 2", ahead)
	}
}

func TestNonDeferredSerializes(t *testing.T) {
	prof := testProfile()
	prof.Deferred = false
	m := New(prof)
	tgt := m.NewResource("t")
	in := m.NewResource("in")
	for i := 0; i < 5; i++ {
		m.Clear(tgt)
		r := m.Draw(drawJob(tgt, in))
		if m.Now() < r.FPEnd {
			t.Fatal("non-deferred mode did not wait for frame completion")
		}
	}
}

func TestWaitAllAndReadback(t *testing.T) {
	m := New(testProfile())
	tgt := m.NewResource("t")
	m.Clear(tgt)
	r := m.Draw(drawJob(tgt))
	if m.Now() >= r.FPEnd {
		t.Fatal("draw should be asynchronous")
	}
	m.Readback(tgt, 1<<20)
	if m.Now() < r.FPEnd {
		t.Error("readback did not drain the pipeline")
	}
	if m.Now() < r.FPEnd+m.Prof.UploadBus.TransferTime(1<<20) {
		t.Error("readback did not pay the copy cost")
	}
}

func TestFP24StoreBytesReduceMemoryTime(t *testing.T) {
	// 3-byte output (fp24 kernels) must yield shorter FP than 4-byte for a
	// memory-bound job.
	prof := testProfile()
	prof.MemBus = mem.Bus{BytesPerSecond: 200e6} // slow memory
	run := func(bpp int) timing.Time {
		m := New(prof)
		tgt := m.NewResource("t")
		m.Clear(tgt)
		job := drawJob(tgt)
		job.FragCycles = 1000 // negligible compute
		job.BytesPerPixelOut = bpp
		r := m.Draw(job)
		return r.FPEnd - r.FPStart
	}
	t4, t3 := run(4), run(3)
	if t3 >= t4 {
		t.Errorf("3-byte store FP %v not below 4-byte %v", t3, t4)
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	m := New(testProfile())
	tgt := m.NewResource("t")
	m.Clear(tgt)
	m.Draw(drawJob(tgt))
	m.WaitAll()
	m.Reset()
	if m.Now() != 0 || m.Stats.Draws != 0 || m.ReadyAt(tgt) != 0 {
		t.Error("Reset did not clear machine state")
	}
}

func TestTraceRecordsPipelineSpans(t *testing.T) {
	m := New(testProfile())
	m.Trace.Enable(true)
	tgt := m.NewResource("fb")
	tex := m.NewResource("tex")
	in := m.NewResource("in")
	m.Upload(in, 1<<16, false)
	m.Clear(tgt)
	m.Draw(drawJob(tgt, in))
	m.Copy(tgt, tex, 1<<16, false)
	m.Readback(tex, 1<<10)
	var got []string
	for _, e := range m.Trace.Events() {
		got = append(got, e.Resource+": "+e.Name)
		if e.End < e.Start {
			t.Errorf("span %q ends before it starts", e.Name)
		}
	}
	want := []string{
		"cpu: upload 65536B -> in",
		"fp: draw#1 -> fb",
		"copy: copy 65536B fb->tex",
		"cpu: readpixels 1024B",
	}
	if !slices.Equal(got, want) {
		t.Errorf("spans %q, want %q", got, want)
	}
	// The asynchronous upload path labels its span the same way.
	m = New(device.VideoCoreIV())
	m.Trace.Enable(true)
	m.Upload(m.NewResource("in"), 1<<16, false)
	if ev := m.Trace.Events(); len(ev) != 1 || ev[0].Resource != "upload" || ev[0].Name != "upload 65536B -> in" {
		t.Errorf("async upload spans %+v", ev)
	}
}

// TestDisabledTraceCostsNoAllocations pins that the span labels are only
// formatted for an enabled trace: scheduling calls allocate nothing.
func TestDisabledTraceCostsNoAllocations(t *testing.T) {
	// VideoCore uploads through its DMA engine, SGX on the CPU: both paths.
	for _, prof := range []*device.Profile{device.VideoCoreIV(), device.PowerVRSGX545()} {
		m := New(prof)
		fb, tex, in := m.NewResource("fb"), m.NewResource("tex"), m.NewResource("in")
		job := drawJob(fb, in)
		for i := 0; i < 2*outstandingCap; i++ {
			m.Draw(job) // grow the in-flight list to its trimmed capacity
		}
		calls := map[string]func(){
			"Draw":   func() { m.Draw(job) },
			"Copy":   func() { m.Copy(fb, tex, 1<<16, false) },
			"Upload": func() { m.Upload(in, 1<<16, true) },
		}
		for name, call := range calls {
			if n := testing.AllocsPerRun(200, call); n != 0 {
				t.Errorf("%s: %s allocates %v times per call with tracing off", prof.Name, name, n)
			}
		}
	}
}

func TestMarkReadWrite(t *testing.T) {
	m := New(testProfile())
	r := m.NewResource("x")
	m.MarkWritten(r, 100)
	if m.ReadyAt(r) != 100 {
		t.Errorf("ReadyAt = %v", m.ReadyAt(r))
	}
	m.MarkRead(r, 250)
	// Overwriting upload must respect the reader.
	m.Upload(r, 1, true)
	if got := m.ReadyAt(r); got < 250 {
		t.Errorf("upload ignored MarkRead: ready %v", got)
	}
	// Earlier marks never move times backwards.
	m.MarkWritten(r, 10)
	if m.ReadyAt(r) < 250 {
		t.Error("MarkWritten moved readiness backwards")
	}
}

func TestStatsAccumulate(t *testing.T) {
	m := New(testProfile())
	tgt := m.NewResource("t")
	in := m.NewResource("in")
	m.Upload(in, 4096, false)
	m.Clear(tgt)
	m.Draw(drawJob(tgt, in))
	m.Copy(tgt, m.NewResource("d"), 4096, false)
	st := m.Stats
	if st.Draws != 1 || st.UploadOps != 1 || st.CopyOps != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.UploadBytes != 4096 || st.CopyBytes != 4096 {
		t.Errorf("byte counters = %d/%d", st.UploadBytes, st.CopyBytes)
	}
	if st.FragmentsShaded != 256*256 {
		t.Errorf("fragments = %d", st.FragmentsShaded)
	}
	if m.FPBusy() <= 0 {
		t.Error("FP busy time missing")
	}
	if m.CopyBusy() <= 0 {
		t.Error("copy busy time missing")
	}
}

func TestVsyncClockMatchesProfile(t *testing.T) {
	m := New(device.VideoCoreIV())
	period := m.VSyncClock.Period()
	want := timing.FromSeconds(1.0 / 60)
	diff := period - want
	if diff < 0 {
		diff = -diff
	}
	if diff > timing.Microsecond {
		t.Errorf("vsync period = %v, want ~%v", period, want)
	}
}
