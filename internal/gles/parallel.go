package gles

// Host-parallel fragment shading: the worker count and pool the tiled
// fast path (tiled.go) spreads a draw's tiles over.
//
// The simulator's virtual-time model is unaffected by how fast the host
// computes a draw, so the fragment stage — by far the dominant host cost —
// can be spread over OS threads as long as the results stay bit-identical
// to serial execution. Every pixel belongs to exactly one tile and each
// tile walks ALL triangles overlapping it in submission order, so the
// per-pixel sequence of shades and blends is exactly the serial one
// restricted to that pixel; this keeps even overlapping, blending
// triangles exact. Fragments of different pixels may run in any order
// because the fast path only admits programs proven independent of
// residual register state (Program.WritesBeforeReads) that write their
// outputs on every path (Program.OutputsAlwaysWritten). Cycle and
// texture-fetch counters are int64 sums over fragments, so per-worker
// subtotals merged by addition reproduce the serial totals exactly;
// virtual-time results are therefore bit-identical at any worker count.

import (
	"runtime"
	"sync"

	"gles2gpgpu/internal/shader"
)

// parallelMinFragments gates parallel shading: below this estimated
// fragment count, goroutine fan-out and joins cost more than they save, so
// the draw shades inline on the calling goroutine.
const parallelMinFragments = 4096

// SetWorkers sets the fragment-shading worker count. n <= 0 restores the
// default, GOMAXPROCS; 1 forces serial shading. Virtual-time results are
// identical at any setting.
func (c *Context) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n == c.workers {
		return
	}
	c.workers = n
	if c.pool != nil {
		c.pool.shutdown()
		c.pool = nil
	}
}

// workerPool is a fixed set of goroutines draining a task channel. Draws
// never submit nested tasks, so feeding a batch and waiting cannot
// deadlock.
type workerPool struct {
	tasks chan func()
	done  sync.WaitGroup
}

func newWorkerPool(n int) *workerPool {
	p := &workerPool{tasks: make(chan func())}
	p.done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer p.done.Done()
			for fn := range p.tasks {
				fn()
			}
		}()
	}
	return p
}

// run executes fns on the pool and returns when all have finished.
func (p *workerPool) run(fns []func()) {
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for _, fn := range fns {
		fn := fn
		p.tasks <- func() {
			defer wg.Done()
			fn()
		}
	}
	wg.Wait()
}

func (p *workerPool) shutdown() {
	close(p.tasks)
	p.done.Wait()
}

func (c *Context) ensurePool() *workerPool {
	if c.pool == nil {
		c.pool = newWorkerPool(c.workers)
	}
	return c.pool
}

// shadeStats is one worker's share of the draw measurement.
type shadeStats struct {
	fragments  int64
	cycles     int64
	texFetches int64
}

// envSampler builds the texture-sampling closure for one worker Env.
// sampleTexture only reads texture state, so sharing samplers across
// workers is safe.
func envSampler(samplers []*Texture) shader.SampleFunc {
	return func(idx int, u, v float32) shader.Vec4 {
		if idx < 0 || idx >= len(samplers) {
			return shader.Vec4{0, 0, 0, 1}
		}
		return shader.Vec4(sampleTexture(samplers[idx], u, v))
	}
}
