package shader

import "sync"

// LaneEnvPool hands out SoA batch environments (LaneEnv) for one program
// at one lane width to concurrent shading workers.
//
// Concurrency audit backing the host-parallel fragment engine: a compiled
// Program and its LaneCompiled forms are immutable after construction —
// Run only reads instructions and constants — so any number of goroutines
// may run them simultaneously as long as each uses its own LaneEnv.
// Uniform slices broadcast into LaneEnvs are shared read-only for the
// duration of a draw; the GLES layer guarantees no API call mutates them
// while a draw is executing. Pooling the
// SoA register slabs and scratch blocks means the lane executor allocates
// nothing on the per-tile hot path — workers Get once per draw, batch
// through the whole tile walk, and Put when done.
type LaneEnvPool struct {
	prog  *Program
	width int
	mu    sync.Mutex
	free  []*LaneEnv
}

// NewLaneEnvPool returns a pool producing batch environments sized for p
// at the given lane width.
func NewLaneEnvPool(p *Program, width int) *LaneEnvPool {
	return &LaneEnvPool{prog: p, width: width}
}

// Get returns a ready LaneEnv, reusing a previously returned one when
// available. Reused LaneEnvs keep their accumulated Cycles/TexFetches
// (callers measure deltas); register slabs may hold stale lanes, which is
// only trustworthy for programs with WritesBeforeReads — the first clause
// of LaneFallbackAt, which the GLES layer checks before it pools.
func (pl *LaneEnvPool) Get() *LaneEnv {
	pl.mu.Lock()
	if n := len(pl.free); n > 0 {
		e := pl.free[n-1]
		pl.free = pl.free[:n-1]
		pl.mu.Unlock()
		return e
	}
	pl.mu.Unlock()
	return NewLaneEnv(pl.prog, pl.width)
}

// Put returns a LaneEnv to the pool for reuse.
func (pl *LaneEnvPool) Put(e *LaneEnv) {
	if e == nil {
		return
	}
	pl.mu.Lock()
	pl.free = append(pl.free, e)
	pl.mu.Unlock()
}
