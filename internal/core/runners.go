package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"gles2gpgpu/internal/codec"
	"gles2gpgpu/internal/kernels"
)

// Runner is one benchmark workload: RunOnce executes the benchmark body
// (the unit the paper repeats 10 000 times) and Result reads the output
// back. RunOnce honours ctx: cancellation and deadlines are checked before
// the body and between the passes of multi-pass workloads, so a serving
// layer can abandon work mid-job without tearing the engine down.
type Runner interface {
	RunOnce(ctx context.Context) error
	Result() (*codec.Matrix, error)
}

// Releaser is implemented by runners that can return their GPU tensors to
// the engine's residency pool when the runner is retired (see TensorPool).
type Releaser interface {
	Release()
}

// SumRunner is the paper's streaming matrix-addition benchmark.
//
// Steady-state invariant: from the end of its first RunOnce on, the runner
// state that steers later iterations (whether inputs stream, which output
// tensor the next pass writes and which it samples) repeats every two
// iterations; only the dependency variant's ping-pong index alternates.
// bench.Measure relies on this when it compares iteration boundaries two
// apart.
type SumRunner struct {
	e      *Engine
	k      *Kernel
	a, b   *codec.Matrix
	tA, tB *Tensor
	out    [2]*Tensor
	cur    int
	first  bool
}

// NewSum prepares the sum workload: c = a + b. The inputs must share one
// encoding range.
func NewSum(e *Engine, a, b *codec.Matrix) (*SumRunner, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, fmt.Errorf("core: sum shapes %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if a.Rows != e.cfg.Height || a.Cols != e.cfg.Width {
		return nil, fmt.Errorf("core: sum shape %dx%d does not match engine grid %dx%d", a.Rows, a.Cols, e.cfg.Height, e.cfg.Width)
	}
	if a.Range != b.Range {
		return nil, fmt.Errorf("core: sum inputs must share a range")
	}
	src := kernels.Sum(e.cfg.Kernel)
	if e.cfg.ArtificialDependency {
		src = kernels.SumDep(e.cfg.Kernel)
	}
	k, err := e.CachedKernel(src)
	if err != nil {
		return nil, err
	}
	r := &SumRunner{e: e, k: k, a: a, b: b, first: true}
	r.tA = e.NewTensor(a.Rows, a.Cols, a.Range)
	r.tB = e.NewTensor(b.Rows, b.Cols, b.Range)
	outRange := codec.Range{Lo: a.Range.Lo + b.Range.Lo, Hi: a.Range.Hi + b.Range.Hi}
	for i := range r.out {
		r.out[i] = e.NewTensor(a.Rows, a.Cols, outRange)
	}
	if err := r.tA.Upload(a, false); err != nil {
		return nil, err
	}
	if err := r.tB.Upload(b, false); err != nil {
		return nil, err
	}
	// The dependency variant samples the previous output, which must
	// exist from the very first pass.
	if e.cfg.ArtificialDependency && e.cfg.Target == TargetTexture {
		for i := range r.out {
			if err := r.out[i].AllocateStorage(); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// SetInputs rebinds the runner to new input matrices of the same shape and
// range, re-uploading them into the live textures (the sub-image path). It
// lets a serving layer run many jobs through one warm runner, amortising
// kernel and tensor setup the way the paper amortises per-iteration work.
func (r *SumRunner) SetInputs(a, b *codec.Matrix) error {
	if a.Rows != r.a.Rows || a.Cols != r.a.Cols || b.Rows != r.b.Rows || b.Cols != r.b.Cols {
		return fmt.Errorf("core: sum rebind shape mismatch")
	}
	if a.Range != r.a.Range || b.Range != r.b.Range {
		return fmt.Errorf("core: sum rebind range mismatch")
	}
	r.a, r.b = a, b
	if err := r.tA.Upload(a, true); err != nil {
		return err
	}
	return r.tB.Upload(b, true)
}

// RunOnce executes one benchmark-body iteration.
func (r *SumRunner) RunOnce(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	e := r.e
	if e.cfg.StreamInputs && !r.first {
		if err := r.tA.Upload(r.a, e.cfg.ReuseInputTextures); err != nil {
			return err
		}
		if err := r.tB.Upload(r.b, e.cfg.ReuseInputTextures); err != nil {
			return err
		}
	}
	r.first = false
	r.k.BindInput("text0", 0, r.tA)
	r.k.BindInput("text1", 1, r.tB)
	out := r.out[r.cur]
	if e.cfg.ArtificialDependency {
		prev := r.out[1-r.cur]
		if !prev.allocated {
			if err := prev.AllocateStorage(); err != nil {
				return err
			}
		}
		r.k.BindInput("text2", 2, prev)
		r.cur = 1 - r.cur
	}
	if err := r.k.Dispatch(out); err != nil {
		return err
	}
	return e.EndIteration()
}

// Kernel returns the compiled kernel (for stat priming).
func (r *SumRunner) Kernel() *Kernel { return r.k }

// Result reads back the last output.
func (r *SumRunner) Result() (*codec.Matrix, error) {
	idx := r.cur
	if r.e.cfg.ArtificialDependency {
		idx = 1 - r.cur // cur was advanced past the last write
	}
	return r.out[idx].Read()
}

// Release returns the runner's tensors to the engine pool.
func (r *SumRunner) Release() {
	r.tA.Release()
	r.tB.Release()
	r.out[0].Release()
	r.out[1].Release()
}

// SgemmRunner is the paper's multi-pass blocked matrix-multiply benchmark
// (§III/§IV, Fig. 2): RunOnce performs one full C = A·B, i.e. M/block
// kernel passes with double-buffered intermediate textures.
//
// Steady-state invariant: every RunOnce after the first issues the same
// passes over the same tensors, because the intermediate ping-pong index
// restarts at 0 each time, so the runner's state repeats every iteration
// and therefore every two, the period bench.Measure compares. The surface
// back buffer, flipped once per presented pass, is in core.Snapshot.
type SgemmRunner struct {
	e        *Engine
	k        *Kernel
	a, b     *codec.Matrix
	tA, tB   *Tensor
	interm   [2]*Tensor
	zero     *Tensor
	n, block int
	passes   int
	last     int // interm index holding the final result
	first    bool
}

// NewSgemm prepares C = A·B on n×n unit-range matrices with the given
// block size. Block sizes whose unrolled kernels exceed the device's
// implementation limits fail here with the compiler's diagnostic — the
// paper's >16 "crashes and shader compilation failures".
func NewSgemm(e *Engine, a, b *codec.Matrix, block int) (*SgemmRunner, error) {
	n := a.Rows
	if a.Cols != n || b.Rows != n || b.Cols != n {
		return nil, fmt.Errorf("core: sgemm requires square same-size matrices")
	}
	if n != e.cfg.Width || n != e.cfg.Height {
		return nil, fmt.Errorf("core: sgemm size %d does not match engine grid %dx%d", n, e.cfg.Width, e.cfg.Height)
	}
	if a.Range != codec.Unit || b.Range != codec.Unit {
		return nil, fmt.Errorf("core: sgemm inputs must use the unit range")
	}
	src, err := kernels.SgemmPass(n, block, e.cfg.Kernel)
	if err != nil {
		return nil, err
	}
	k, err := e.CachedKernel(src)
	if err != nil {
		return nil, err
	}
	r := &SgemmRunner{e: e, k: k, a: a, b: b, n: n, block: block, passes: n / block, first: true}
	r.tA = e.NewTensor(n, n, codec.Unit)
	r.tB = e.NewTensor(n, n, codec.Unit)
	outRange := codec.Range{Lo: 0, Hi: float64(n)}
	for i := range r.interm {
		r.interm[i] = e.NewTensor(n, n, outRange)
	}
	r.zero = e.NewTensor(n, n, outRange)
	if err := r.tA.Upload(a, false); err != nil {
		return nil, err
	}
	if err := r.tB.Upload(b, false); err != nil {
		return nil, err
	}
	// The zero accumulator feeding the first pass; a timing-only engine
	// ignores upload contents, so it gets the shape alone.
	zm := &codec.Matrix{Rows: n, Cols: n, Range: outRange}
	if !e.gl.TimingOnly() {
		zm.Data = make([]float64, n*n)
	}
	if err := r.zero.Upload(zm, false); err != nil {
		return nil, err
	}
	return r, nil
}

// Passes returns the number of kernel launches per multiplication.
func (r *SgemmRunner) Passes() int { return r.passes }

// Kernel returns the compiled kernel (for stat priming).
func (r *SgemmRunner) Kernel() *Kernel { return r.k }

// SetInputs rebinds the runner to new unit-range n×n input matrices,
// re-uploading them into the live textures (the sub-image path).
func (r *SgemmRunner) SetInputs(a, b *codec.Matrix) error {
	if a.Rows != r.n || a.Cols != r.n || b.Rows != r.n || b.Cols != r.n {
		return fmt.Errorf("core: sgemm rebind requires %dx%d matrices", r.n, r.n)
	}
	if a.Range != codec.Unit || b.Range != codec.Unit {
		return fmt.Errorf("core: sgemm rebind inputs must use the unit range")
	}
	r.a, r.b = a, b
	if err := r.tA.Upload(a, true); err != nil {
		return err
	}
	return r.tB.Upload(b, true)
}

// RunOnce performs one complete multiplication (all passes), checking ctx
// between passes so cancellation takes effect mid-multiplication.
func (r *SgemmRunner) RunOnce(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	e := r.e
	if e.cfg.StreamInputs && !r.first {
		if err := r.tA.Upload(r.a, e.cfg.ReuseInputTextures); err != nil {
			return err
		}
		if err := r.tB.Upload(r.b, e.cfg.ReuseInputTextures); err != nil {
			return err
		}
	}
	r.first = false
	cur := 0
	for p := 0; p < r.passes; p++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		in := r.interm[cur]
		if p == 0 {
			in = r.zero
		}
		out := r.interm[1-cur]
		r.k.SetFloat("blk_n", float32(p*r.block)/float32(r.n))
		r.k.BindInput("text0", 0, r.tA)
		r.k.BindInput("text1", 1, r.tB)
		r.k.BindInput("text2", 2, in)
		if err := r.k.Dispatch(out); err != nil {
			return err
		}
		if err := e.EndIteration(); err != nil {
			return err
		}
		cur = 1 - cur
	}
	r.last = cur // index written by the final pass (after the flip)
	return nil
}

// Result reads back C.
func (r *SgemmRunner) Result() (*codec.Matrix, error) {
	return r.interm[r.last].Read()
}

// Release returns the runner's tensors to the engine pool.
func (r *SgemmRunner) Release() {
	r.tA.Release()
	r.tB.Release()
	r.interm[0].Release()
	r.interm[1].Release()
	r.zero.Release()
}

// SaxpyRunner computes y' = alpha·x + y.
type SaxpyRunner struct {
	e      *Engine
	k      *Kernel
	x, y   *codec.Matrix
	tX, tY *Tensor
	out    *Tensor
	alpha  float32
	first  bool
}

// NewSaxpy prepares the saxpy workload (alpha ∈ [0,1], unit-range inputs).
func NewSaxpy(e *Engine, alpha float32, x, y *codec.Matrix) (*SaxpyRunner, error) {
	if x.Rows != y.Rows || x.Cols != y.Cols {
		return nil, fmt.Errorf("core: saxpy shape mismatch")
	}
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("core: saxpy alpha %g outside [0,1] (encoded domain)", alpha)
	}
	k, err := e.CachedKernel(kernels.Saxpy(e.cfg.Kernel))
	if err != nil {
		return nil, err
	}
	r := &SaxpyRunner{e: e, k: k, x: x, y: y, alpha: alpha, first: true}
	r.tX = e.NewTensor(x.Rows, x.Cols, x.Range)
	r.tY = e.NewTensor(y.Rows, y.Cols, y.Range)
	outRange := codec.Range{Lo: x.Range.Lo + y.Range.Lo, Hi: x.Range.Hi + y.Range.Hi}
	r.out = e.NewTensor(x.Rows, x.Cols, outRange)
	if err := r.tX.Upload(x, false); err != nil {
		return nil, err
	}
	if err := r.tY.Upload(y, false); err != nil {
		return nil, err
	}
	return r, nil
}

// SetInputs rebinds the runner to a new alpha and new input matrices of the
// same shape and range, re-uploading through the sub-image path.
func (r *SaxpyRunner) SetInputs(alpha float32, x, y *codec.Matrix) error {
	if x.Rows != r.x.Rows || x.Cols != r.x.Cols || y.Rows != r.y.Rows || y.Cols != r.y.Cols {
		return fmt.Errorf("core: saxpy rebind shape mismatch")
	}
	if x.Range != r.x.Range || y.Range != r.y.Range {
		return fmt.Errorf("core: saxpy rebind range mismatch")
	}
	if alpha < 0 || alpha > 1 {
		return fmt.Errorf("core: saxpy alpha %g outside [0,1] (encoded domain)", alpha)
	}
	r.alpha = alpha
	r.x, r.y = x, y
	if err := r.tX.Upload(x, true); err != nil {
		return err
	}
	return r.tY.Upload(y, true)
}

// RunOnce executes one iteration.
func (r *SaxpyRunner) RunOnce(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	e := r.e
	if e.cfg.StreamInputs && !r.first {
		if err := r.tX.Upload(r.x, e.cfg.ReuseInputTextures); err != nil {
			return err
		}
		if err := r.tY.Upload(r.y, e.cfg.ReuseInputTextures); err != nil {
			return err
		}
	}
	r.first = false
	r.k.SetFloat("alpha", r.alpha)
	r.k.BindInput("text0", 0, r.tX)
	r.k.BindInput("text1", 1, r.tY)
	if err := r.k.Dispatch(r.out); err != nil {
		return err
	}
	return e.EndIteration()
}

// Result reads back y'.
func (r *SaxpyRunner) Result() (*codec.Matrix, error) { return r.out.Read() }

// Release returns the runner's tensors to the engine pool.
func (r *SaxpyRunner) Release() {
	r.tX.Release()
	r.tY.Release()
	r.out.Release()
}

// JacobiRunner iterates the Jacobi relaxation kernel over a ping-pong
// tensor pair (a multi-pass numerical solver, one of the application
// domains the paper motivates).
type JacobiRunner struct {
	e  *Engine
	k  *Kernel
	pp *PingPong
}

// NewJacobi prepares the solver with the given initial grid.
func NewJacobi(e *Engine, initial *codec.Matrix) (*JacobiRunner, error) {
	k, err := e.CachedKernel(kernels.Jacobi(initial.Cols, initial.Rows, e.cfg.Kernel))
	if err != nil {
		return nil, err
	}
	r := &JacobiRunner{e: e, k: k, pp: e.NewPingPong(initial.Rows, initial.Cols, initial.Range)}
	if err := r.pp.Upload(initial); err != nil {
		return nil, err
	}
	return r, nil
}

// step binds the input grid and relaxes into the output grid.
func (r *JacobiRunner) step(in, out *Tensor) error {
	r.k.BindInput("text0", 0, in)
	return r.k.Dispatch(out)
}

// RunOnce performs one relaxation step.
func (r *JacobiRunner) RunOnce(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := r.step(r.pp.Cur(), r.pp.Next()); err != nil {
		return err
	}
	r.pp.Swap()
	return r.e.EndIteration()
}

// RunToConvergence relaxes until the residual between periodic readbacks
// drops to opts.Tol (or opts.MaxIters is reached) via Engine.StepLoop.
// Late iterations change little of the grid, so this is where the
// cross-iteration tile-coherence cache pays off: converged tiles stop
// re-shading long before the residual check can stop the loop.
func (r *JacobiRunner) RunToConvergence(ctx context.Context, opts StepOpts) (StepResult, error) {
	return r.e.StepLoop(ctx, r.pp, opts, func(_ int, in, out *Tensor) error {
		return r.step(in, out)
	})
}

// Result reads the current grid.
func (r *JacobiRunner) Result() (*codec.Matrix, error) { return r.pp.Read() }

// Release returns the runner's tensors to the engine pool.
func (r *JacobiRunner) Release() { r.pp.Release() }

// Jacobi8Runner iterates the display-precision (8-bit raw state) Jacobi
// relaxation. Unlike the codec-encoded JacobiRunner — whose low-order
// state bytes never stop churning — the byte-quantised relaxation reaches
// an exact fixed point progressively, tile by tile, so late iterations are
// almost entirely coherence-elided. This is the jacobi-to-convergence
// workload of the coherence benchmarks.
type Jacobi8Runner struct {
	e  *Engine
	k  *Kernel
	pp *PingPong
}

// NewJacobi8 prepares the 8-bit solver, quantising the initial grid (unit
// range) to bytes.
func NewJacobi8(e *Engine, initial *codec.Matrix) (*Jacobi8Runner, error) {
	k, err := e.CachedKernel(kernels.Jacobi8(initial.Cols, initial.Rows, e.cfg.Kernel))
	if err != nil {
		return nil, err
	}
	r := &Jacobi8Runner{e: e, k: k, pp: e.NewPingPong(initial.Rows, initial.Cols, codec.Unit)}
	state := make([]byte, initial.Rows*initial.Cols*4)
	for i, v := range initial.Data {
		b := byte(math.Round(v * 255))
		state[i*4+0] = b
		state[i*4+1] = b
		state[i*4+2] = b
		state[i*4+3] = 255
	}
	if err := r.pp.UploadEncoded(state); err != nil {
		return nil, err
	}
	return r, nil
}

// RunOnce performs one relaxation step.
func (r *Jacobi8Runner) RunOnce(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r.k.BindInput("text0", 0, r.pp.Cur())
	if err := r.k.Dispatch(r.pp.Next()); err != nil {
		return err
	}
	r.pp.Swap()
	return r.e.EndIteration()
}

// RunToConvergence relaxes until the raw state bytes stop changing between
// periodic readbacks (or opts.MaxIters is reached). A nil opts.ResidualRaw
// defaults to MaxByteDiff.
func (r *Jacobi8Runner) RunToConvergence(ctx context.Context, opts StepOpts) (StepResult, error) {
	if opts.ResidualRaw == nil {
		opts.ResidualRaw = MaxByteDiff
	}
	return r.e.StepLoop(ctx, r.pp, opts, func(_ int, in, out *Tensor) error {
		r.k.BindInput("text0", 0, in)
		return r.k.Dispatch(out)
	})
}

// State reads the raw RGBA state.
func (r *Jacobi8Runner) State() ([]byte, error) { return r.pp.ReadRaw() }

// Result decodes the temperatures (the R channel) into a matrix.
func (r *Jacobi8Runner) Result() (*codec.Matrix, error) { return rawChannelMatrix(r.pp, 0) }

// Release returns the runner's tensors to the engine pool.
func (r *Jacobi8Runner) Release() { r.pp.Release() }

// ParticlesRunner steps a texture-resident particle system: each texel is
// one particle (position in RG, velocity in BA) stored as raw RGBA bytes —
// the gl-gpgpu style of state-stepping workload. Velocities decay to rest
// and positions settle onto byte fixed points, so tiles progressively stop
// changing and the coherence cache elides them.
type ParticlesRunner struct {
	e  *Engine
	k  *Kernel
	pp *PingPong
}

// NewParticles seeds a particle per texel of the engine grid with
// deterministic pseudo-random positions and velocities derived from seed.
func NewParticles(e *Engine, seed int64) (*ParticlesRunner, error) {
	k, err := e.CachedKernel(kernels.Particles(e.cfg.Kernel))
	if err != nil {
		return nil, err
	}
	rows, cols := e.cfg.Height, e.cfg.Width
	r := &ParticlesRunner{e: e, k: k, pp: e.NewPingPong(rows, cols, codec.Unit)}
	rng := rand.New(rand.NewSource(seed))
	state := make([]byte, rows*cols*4)
	for i := 0; i < len(state); i += 4 {
		state[i+0] = byte(rng.Intn(256)) // pos.x
		state[i+1] = byte(rng.Intn(256)) // pos.y
		state[i+2] = byte(rng.Intn(256)) // vel.x around 128
		state[i+3] = byte(rng.Intn(256)) // vel.y around 128
	}
	if err := r.pp.UploadEncoded(state); err != nil {
		return nil, err
	}
	return r, nil
}

// RunOnce advances every particle one step.
func (r *ParticlesRunner) RunOnce(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r.k.BindInput("text0", 0, r.pp.Cur())
	if err := r.k.Dispatch(r.pp.Next()); err != nil {
		return err
	}
	r.pp.Swap()
	return r.e.EndIteration()
}

// State reads the raw RGBA particle state.
func (r *ParticlesRunner) State() ([]byte, error) { return r.pp.ReadRaw() }

// Result decodes the particle x positions (the R channel) into a matrix.
func (r *ParticlesRunner) Result() (*codec.Matrix, error) { return rawChannelMatrix(r.pp, 0) }

// Release returns the runner's tensors to the engine pool.
func (r *ParticlesRunner) Release() { r.pp.Release() }

// ReactionDiffusionRunner steps a Gray-Scott reaction-diffusion system
// (species u in R, v in G, raw byte state). Away from the growing pattern
// the homogeneous u=1, v=0 state is byte-exact under the update, so most
// tiles are coherence-elided every iteration.
type ReactionDiffusionRunner struct {
	e  *Engine
	k  *Kernel
	pp *PingPong
}

// NewReactionDiffusion seeds the engine grid with the homogeneous u=1, v=0
// state plus a perturbed square spot in the centre that grows into the
// pattern front.
func NewReactionDiffusion(e *Engine) (*ReactionDiffusionRunner, error) {
	rows, cols := e.cfg.Height, e.cfg.Width
	k, err := e.CachedKernel(kernels.ReactionDiffusion(cols, rows, e.cfg.Kernel))
	if err != nil {
		return nil, err
	}
	r := &ReactionDiffusionRunner{e: e, k: k, pp: e.NewPingPong(rows, cols, codec.Unit)}
	state := make([]byte, rows*cols*4)
	for i := 0; i < len(state); i += 4 {
		state[i+0] = 255 // u = 1
		state[i+3] = 255 // alpha (kernel re-emits 1)
	}
	// Central spot: u = 0.5, v = 0.25.
	const spot = 4
	for y := rows/2 - spot; y < rows/2+spot; y++ {
		for x := cols/2 - spot; x < cols/2+spot; x++ {
			if y < 0 || y >= rows || x < 0 || x >= cols {
				continue
			}
			i := (y*cols + x) * 4
			state[i+0] = 128
			state[i+1] = 64
		}
	}
	if err := r.pp.UploadEncoded(state); err != nil {
		return nil, err
	}
	return r, nil
}

// RunOnce advances the system one step.
func (r *ReactionDiffusionRunner) RunOnce(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r.k.BindInput("text0", 0, r.pp.Cur())
	if err := r.k.Dispatch(r.pp.Next()); err != nil {
		return err
	}
	r.pp.Swap()
	return r.e.EndIteration()
}

// State reads the raw RGBA species state.
func (r *ReactionDiffusionRunner) State() ([]byte, error) { return r.pp.ReadRaw() }

// Result decodes the u concentrations (the R channel) into a matrix.
func (r *ReactionDiffusionRunner) Result() (*codec.Matrix, error) { return rawChannelMatrix(r.pp, 0) }

// Release returns the runner's tensors to the engine pool.
func (r *ReactionDiffusionRunner) Release() { r.pp.Release() }

// rawChannelMatrix reads a ping-pong pair's raw state and decodes one byte
// channel as values in [0, 1].
func rawChannelMatrix(pp *PingPong, ch int) (*codec.Matrix, error) {
	raw, err := pp.ReadRaw()
	if err != nil {
		return nil, err
	}
	t := pp.Cur()
	m := codec.NewMatrix(t.Rows, t.Cols)
	for i := range m.Data {
		m.Data[i] = float64(raw[i*4+ch]) / 255
	}
	return m, nil
}

// TransposeRunner computes the matrix transpose — a pure data-movement
// kernel whose cost is entirely texture traffic.
type TransposeRunner struct {
	e     *Engine
	k     *Kernel
	in    *codec.Matrix
	tIn   *Tensor
	out   *Tensor
	first bool
}

// NewTranspose prepares out = inᵀ for a square matrix.
func NewTranspose(e *Engine, m *codec.Matrix) (*TransposeRunner, error) {
	if m.Rows != m.Cols || m.Rows != e.cfg.Width || m.Rows != e.cfg.Height {
		return nil, fmt.Errorf("core: transpose requires a square matrix matching the engine grid")
	}
	k, err := e.CachedKernel(kernels.Transpose(e.cfg.Kernel))
	if err != nil {
		return nil, err
	}
	r := &TransposeRunner{e: e, k: k, in: m, first: true}
	r.tIn = e.NewTensor(m.Rows, m.Cols, m.Range)
	r.out = e.NewTensor(m.Rows, m.Cols, m.Range)
	if err := r.tIn.Upload(m, false); err != nil {
		return nil, err
	}
	return r, nil
}

// SetInput rebinds the runner to a new same-shape input matrix.
func (r *TransposeRunner) SetInput(m *codec.Matrix) error {
	if m.Rows != r.in.Rows || m.Cols != r.in.Cols || m.Range != r.in.Range {
		return fmt.Errorf("core: transpose rebind shape or range mismatch")
	}
	r.in = m
	r.out.Range = m.Range
	return r.tIn.Upload(m, true)
}

// RunOnce performs the transpose.
func (r *TransposeRunner) RunOnce(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if r.e.cfg.StreamInputs && !r.first {
		if err := r.tIn.Upload(r.in, r.e.cfg.ReuseInputTextures); err != nil {
			return err
		}
	}
	r.first = false
	r.k.BindInput("text0", 0, r.tIn)
	if err := r.k.Dispatch(r.out); err != nil {
		return err
	}
	return r.e.EndIteration()
}

// Result reads the transposed matrix.
func (r *TransposeRunner) Result() (*codec.Matrix, error) { return r.out.Read() }

// Release returns the runner's tensors to the engine pool.
func (r *TransposeRunner) Release() {
	r.tIn.Release()
	r.out.Release()
}

// ReduceRunner computes the sum of all matrix elements with a 2×2 pyramid
// reduction — log2(N) passes over shrinking grids, the standard GPGPU
// reduction shape on APIs without compute primitives. It exercises
// per-pass viewport resizing.
type ReduceRunner struct {
	e      *Engine
	levels []*Kernel
	grids  []*Tensor // grids[0] = input (N), grids[i] = N/2^i
	input  *codec.Matrix
	first  bool
	n      int
}

// NewReduce prepares the reduction of an n×n unit-range matrix (n a power
// of two, matching the engine grid).
func NewReduce(e *Engine, m *codec.Matrix) (*ReduceRunner, error) {
	n := m.Rows
	if m.Cols != n || n != e.cfg.Width || n != e.cfg.Height {
		return nil, fmt.Errorf("core: reduce requires a square matrix matching the engine grid")
	}
	if n&(n-1) != 0 || n < 2 {
		return nil, fmt.Errorf("core: reduce requires a power-of-two size >= 2, got %d", n)
	}
	r := &ReduceRunner{e: e, input: m, first: true, n: n}
	r.grids = append(r.grids, e.NewTensor(n, n, m.Range))
	if err := r.grids[0].Upload(m, false); err != nil {
		return nil, err
	}
	for w := n; w > 1; w /= 2 {
		src, err := kernels.Reduce2x2(w, e.cfg.Kernel)
		if err != nil {
			return nil, err
		}
		k, err := e.CachedKernel(src)
		if err != nil {
			return nil, err
		}
		r.levels = append(r.levels, k)
		r.grids = append(r.grids, e.NewTensor(w/2, w/2, m.Range))
	}
	return r, nil
}

// Levels returns the number of reduction passes.
func (r *ReduceRunner) Levels() int { return len(r.levels) }

// RunOnce performs the full reduction (all pyramid levels), checking ctx
// between levels.
func (r *ReduceRunner) RunOnce(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	e := r.e
	if e.cfg.StreamInputs && !r.first {
		if err := r.grids[0].Upload(r.input, e.cfg.ReuseInputTextures); err != nil {
			return err
		}
	}
	r.first = false
	for i, k := range r.levels {
		if err := ctx.Err(); err != nil {
			return err
		}
		k.BindInput("text0", 0, r.grids[i])
		if err := k.Dispatch(r.grids[i+1]); err != nil {
			return err
		}
		if err := e.EndIteration(); err != nil {
			return err
		}
	}
	return nil
}

// Result returns the 1×1 matrix holding the mean of all elements.
func (r *ReduceRunner) Result() (*codec.Matrix, error) {
	return r.grids[len(r.grids)-1].Read()
}

// Total returns the sum of all elements (mean × N²).
func (r *ReduceRunner) Total() (float64, error) {
	m, err := r.Result()
	if err != nil {
		return 0, err
	}
	return m.At(0, 0) * float64(r.n) * float64(r.n), nil
}

// Release returns the runner's tensors to the engine pool.
func (r *ReduceRunner) Release() {
	for _, g := range r.grids {
		g.Release()
	}
}

// Conv3x3Runner applies a 3×3 convolution (computer-vision workload).
type Conv3x3Runner struct {
	e     *Engine
	k     *Kernel
	tIn   *Tensor
	out   *Tensor
	img   *codec.Matrix
	wts   [9]float32
	first bool
}

// NewConv3x3 prepares the filter; weights should be normalised so outputs
// stay in the unit range.
func NewConv3x3(e *Engine, img *codec.Matrix, weights [9]float32) (*Conv3x3Runner, error) {
	k, err := e.CachedKernel(kernels.Conv3x3(img.Cols, img.Rows, e.cfg.Kernel))
	if err != nil {
		return nil, err
	}
	r := &Conv3x3Runner{e: e, k: k, img: img, wts: weights, first: true}
	r.tIn = e.NewTensor(img.Rows, img.Cols, img.Range)
	r.out = e.NewTensor(img.Rows, img.Cols, img.Range)
	if err := r.tIn.Upload(img, false); err != nil {
		return nil, err
	}
	return r, nil
}

// SetInputs rebinds the runner to a new same-shape image and weights.
func (r *Conv3x3Runner) SetInputs(img *codec.Matrix, weights [9]float32) error {
	if img.Rows != r.img.Rows || img.Cols != r.img.Cols || img.Range != r.img.Range {
		return fmt.Errorf("core: conv rebind shape or range mismatch")
	}
	r.img = img
	r.wts = weights
	return r.tIn.Upload(img, true)
}

// RunOnce applies the filter once.
func (r *Conv3x3Runner) RunOnce(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if r.e.cfg.StreamInputs && !r.first {
		if err := r.tIn.Upload(r.img, r.e.cfg.ReuseInputTextures); err != nil {
			return err
		}
	}
	r.first = false
	r.k.SetFloats("k", r.wts[:])
	r.k.BindInput("text0", 0, r.tIn)
	if err := r.k.Dispatch(r.out); err != nil {
		return err
	}
	return r.e.EndIteration()
}

// Result reads the filtered image.
func (r *Conv3x3Runner) Result() (*codec.Matrix, error) { return r.out.Read() }

// Release returns the runner's tensors to the engine pool.
func (r *Conv3x3Runner) Release() {
	r.tIn.Release()
	r.out.Release()
}
