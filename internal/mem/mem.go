// Package mem models the memory system of an embedded SoC as seen by the
// GPU driver: transfer costs over the shared main-memory bus, the cost of
// allocating GPU-managed memory inside the driver, and DMA engines that can
// move data asynchronously.
//
// On the platforms the paper targets, CPU and GPU share one physical memory,
// yet the OpenGL ES 2 API still mandates implicit copies into GPU-managed
// allocations (paper §II, "Vertex Processing" and "Texture Loading"). The
// cost models here make those copies and allocations visible in virtual
// time, which is what several of the paper's optimisations eliminate.
package mem

import (
	"fmt"

	"gles2gpgpu/internal/timing"
)

// Bus models a bandwidth-limited transfer path (main memory bus, a blocking
// copy path, or the link a DMA engine drives).
type Bus struct {
	// BytesPerSecond is the sustained bandwidth. Zero means infinitely
	// fast (transfers cost only Latency).
	BytesPerSecond float64
	// Latency is the fixed per-transfer setup cost.
	Latency timing.Time
}

// TransferTime returns the virtual time needed to move n bytes.
func (b Bus) TransferTime(n int) timing.Time {
	if n < 0 {
		n = 0
	}
	t := b.Latency
	if b.BytesPerSecond > 0 && n > 0 {
		t += timing.FromSeconds(float64(n) / b.BytesPerSecond)
		if t <= b.Latency {
			t = b.Latency + 1 // transfers of real data never take zero time
		}
	}
	return t
}

// AllocModel is the driver-side cost of creating a GPU-managed allocation:
// page-table and cache maintenance plus a per-byte component (zeroing,
// mapping).
type AllocModel struct {
	Fixed   timing.Time
	PerByte timing.Time // cost per 4 KiB page, spread per byte below
}

// AllocTime returns the driver time to allocate n bytes of GPU memory.
func (a AllocModel) AllocTime(n int) timing.Time {
	if n < 0 {
		n = 0
	}
	return a.Fixed + timing.Time(int64(a.PerByte)*int64(n)/4096)
}

// Allocation is one live GPU-managed region, tracked so tests and reports
// can observe the memory behaviour the paper reasons about (e.g. texture
// reuse eliminating allocations).
type Allocation struct {
	ID    int
	Size  int
	Label string
}

// Allocator tracks GPU-managed memory. It is a bookkeeping device, not an
// address-space manager: the functional data lives in Go slices owned by the
// GLES layer.
type Allocator struct {
	model    AllocModel
	nextID   int
	live     map[int]Allocation
	liveSize int

	// Statistics since construction or the last ResetStats.
	TotalAllocs   int64
	TotalFrees    int64
	TotalBytes    int64
	PeakLiveBytes int
	// SubUpdates/SubUpdateBytes count in-place writes into live
	// allocations (glTexSubImage2D / glCopyTexSubImage2D) — each one is a
	// reallocation the paper's Fig. 5 reuse optimisation avoided, so
	// SubUpdates/(SubUpdates+TotalAllocs) is the storage-reuse rate.
	SubUpdates     int64
	SubUpdateBytes int64
}

// NewAllocator returns an empty allocator using the given cost model.
func NewAllocator(model AllocModel) *Allocator {
	return &Allocator{model: model, live: make(map[int]Allocation)}
}

// Alloc records a new allocation of n bytes and returns its handle and the
// driver time the allocation costs.
func (al *Allocator) Alloc(n int, label string) (Allocation, timing.Time) {
	if n < 0 {
		n = 0
	}
	al.nextID++
	a := Allocation{ID: al.nextID, Size: n, Label: label}
	al.live[a.ID] = a
	al.liveSize += n
	al.TotalAllocs++
	al.TotalBytes += int64(n)
	if al.liveSize > al.PeakLiveBytes {
		al.PeakLiveBytes = al.liveSize
	}
	return a, al.model.AllocTime(n)
}

// Free releases a live allocation. Freeing an unknown handle is an error so
// that resource-lifetime bugs in the GLES layer surface in tests.
func (al *Allocator) Free(a Allocation) error {
	got, ok := al.live[a.ID]
	if !ok {
		return fmt.Errorf("mem: free of unknown allocation id %d (%q)", a.ID, a.Label)
	}
	delete(al.live, a.ID)
	al.liveSize -= got.Size
	al.TotalFrees++
	return nil
}

// NoteSubUpdate records an in-place update of n bytes into a live
// allocation (the reuse path that skips Alloc entirely).
func (al *Allocator) NoteSubUpdate(n int) {
	if n < 0 {
		n = 0
	}
	al.SubUpdates++
	al.SubUpdateBytes += int64(n)
}

// LiveBytes reports the currently allocated GPU-managed bytes.
func (al *Allocator) LiveBytes() int { return al.liveSize }

// LiveCount reports the number of live allocations.
func (al *Allocator) LiveCount() int { return len(al.live) }

// ResetStats zeroes the counters but keeps live allocations.
func (al *Allocator) ResetStats() {
	al.TotalAllocs, al.TotalFrees, al.TotalBytes = 0, 0, 0
	al.SubUpdates, al.SubUpdateBytes = 0, 0
	al.PeakLiveBytes = al.liveSize
}

// DMA is an asynchronous copy engine: transfers are scheduled on its own
// resource timeline and overlap with CPU and GPU work. The VideoCore IV
// driver uses one to offload framebuffer-to-texture copies at ~1 GB/s
// (paper §V-B); the SGX copy path has none and blocks.
type DMA struct {
	bus Bus
	res *timing.Resource
}

// NewDMA returns a DMA engine driving the given bus.
func NewDMA(name string, bus Bus) *DMA {
	return &DMA{bus: bus, res: timing.NewResource(name)}
}

// Schedule queues a transfer of n bytes that may not start before earliest
// and returns its start and completion times.
func (d *DMA) Schedule(earliest timing.Time, n int) (start, end timing.Time) {
	return d.res.Acquire(earliest, d.bus.TransferTime(n))
}

// ScheduleDuration queues an occupancy of an explicit duration (used when
// the caller stretches a transfer to cover an external constraint, e.g. a
// copy that streams behind a renderer and cannot finish before it).
func (d *DMA) ScheduleDuration(earliest, dur timing.Time) (start, end timing.Time) {
	return d.res.Acquire(earliest, dur)
}

// TransferTime exposes the engine's bus timing.
func (d *DMA) TransferTime(n int) timing.Time { return d.bus.TransferTime(n) }

// FreeAt reports when the engine next becomes idle.
func (d *DMA) FreeAt() timing.Time { return d.res.FreeAt() }

// BusyTotal reports accumulated transfer time.
func (d *DMA) BusyTotal() timing.Time { return d.res.BusyTotal() }

// Timeline exposes the engine's resource timeline.
func (d *DMA) Timeline() *timing.Resource { return d.res }

// Reset returns the engine to idle at time zero.
func (d *DMA) Reset() { d.res.Reset() }
