package core

import (
	"fmt"

	"gles2gpgpu/internal/codec"
	"gles2gpgpu/internal/gles"
)

// Kernel is a compiled GPGPU kernel: a linked program drawing the
// full-screen quad.
type Kernel struct {
	e      *Engine
	prog   uint32
	posLoc int
	locs   map[string]int
}

// BuildKernel compiles the fragment source against the shared pass-through
// vertex shader and links it. Compilation failures — including exceeding
// the device's implementation limits, the paper's block-size ceiling —
// surface as errors wrapping the compile error behind the driver info log,
// so an exceeded limit matches errors.As with a *shader.LimitError.
func (e *Engine) BuildKernel(fragSource string) (*Kernel, error) {
	gl := e.gl
	vs := gl.CreateShader(gles.VERTEX_SHADER)
	gl.ShaderSource(vs, e.vsSource)
	gl.CompileShader(vs)
	if gl.GetShaderiv(vs, gles.COMPILE_STATUS) != 1 {
		return nil, fmt.Errorf("core: vertex shader: %w", gl.ShaderCompileError(vs))
	}
	fs := gl.CreateShader(gles.FRAGMENT_SHADER)
	gl.ShaderSource(fs, fragSource)
	gl.CompileShader(fs)
	if gl.GetShaderiv(fs, gles.COMPILE_STATUS) != 1 {
		return nil, fmt.Errorf("core: fragment shader: %w", gl.ShaderCompileError(fs))
	}
	prog := gl.CreateProgram()
	gl.AttachShader(prog, vs)
	gl.AttachShader(prog, fs)
	gl.LinkProgram(prog)
	if gl.GetProgramiv(prog, gles.LINK_STATUS) != 1 {
		return nil, fmt.Errorf("core: link: %s", gl.GetProgramInfoLog(prog))
	}
	k := &Kernel{e: e, prog: prog, locs: make(map[string]int)}
	gl.UseProgram(prog)
	k.posLoc = gl.GetAttribLocation(prog, "a_pos")
	if k.posLoc < 0 {
		return nil, fmt.Errorf("core: kernel vertex shader has no a_pos attribute")
	}
	if err := e.glErr("kernel build"); err != nil {
		return nil, err
	}
	return k, nil
}

// CachedKernel returns the engine's compiled kernel for fragSource,
// building and memoising it on first use. Long-lived engines (serving
// workers) rebuild the same workloads across jobs; the cache skips even the
// program-object and link work that the context-level shader cache cannot.
// Only successful builds are cached, so failures (over-limit block sizes)
// keep their diagnostics. Kernels from the cache are shared: callers must
// re-set uniforms and bindings before each dispatch, which all runners do.
func (e *Engine) CachedKernel(fragSource string) (*Kernel, error) {
	if k, ok := e.kernelCache[fragSource]; ok {
		return k, nil
	}
	k, err := e.BuildKernel(fragSource)
	if err != nil {
		return nil, err
	}
	if e.kernelCache == nil {
		e.kernelCache = make(map[string]*Kernel)
	}
	e.kernelCache[fragSource] = k
	return k, nil
}

// Program returns the GL program object name (for stat priming and
// diagnostics).
func (k *Kernel) Program() uint32 { return k.prog }

// KernelFromProgram wraps an already-installed linked program — the
// pipeline planner's composed programs (gles.ComposePrograms) — in a
// Kernel, so fused passes dispatch through the same Dispatch/BindInput
// machinery as compiled ones.
func (e *Engine) KernelFromProgram(prog uint32) (*Kernel, error) {
	k := &Kernel{e: e, prog: prog, locs: make(map[string]int)}
	k.posLoc = e.gl.GetAttribLocation(prog, "a_pos")
	if k.posLoc < 0 {
		return nil, fmt.Errorf("core: program %d has no a_pos attribute", prog)
	}
	if err := e.glErr("kernel from program"); err != nil {
		return nil, err
	}
	return k, nil
}

func (k *Kernel) loc(name string) int {
	if l, ok := k.locs[name]; ok {
		return l
	}
	k.e.gl.UseProgram(k.prog)
	l := k.e.gl.GetUniformLocation(k.prog, name)
	k.locs[name] = l
	return l
}

// SetFloat sets a float uniform (ignored if the kernel lacks it).
func (k *Kernel) SetFloat(name string, v float32) {
	k.e.gl.UseProgram(k.prog)
	k.e.gl.Uniform1f(k.loc(name), v)
}

// SetFloats sets a float-array uniform.
func (k *Kernel) SetFloats(name string, vals []float32) {
	k.e.gl.UseProgram(k.prog)
	k.e.gl.Uniform1fv(k.loc(name), vals)
}

// BindInput binds a tensor's texture to a texture unit and points the
// named sampler uniform at it.
func (k *Kernel) BindInput(name string, unit int, t *Tensor) {
	gl := k.e.gl
	gl.UseProgram(k.prog)
	gl.ActiveTexture(gles.TEXTURE0 + gles.Enum(unit))
	gl.BindTexture(gles.TEXTURE_2D, t.tex)
	gl.Uniform1i(k.loc(name), unit)
	gl.ActiveTexture(gles.TEXTURE0)
}

// Dispatch launches the kernel once, writing the result into out according
// to the engine's render-target configuration:
//
//   - TargetTexture: out is attached to the FBO and tiles write straight
//     into it (paper Fig. 1 step 5).
//   - TargetFramebuffer: the kernel renders to the window's back buffer
//     and the result is copied out with glCopyTexImage2D (or the Sub
//     variant under output reuse) — paper Fig. 1 steps 3–4.
//
// The windowing-system synchronisation (eglSwapBuffers) is NOT performed
// here; callers end their iteration with Engine.EndIteration so multi-pass
// algorithms control their present points.
func (k *Kernel) Dispatch(out *Tensor) error {
	e := k.e
	gl := e.gl
	cfg := e.cfg
	if cfg.Kernel.Depth == codec.Depth24 {
		gl.ColorMask(true, true, true, false) // fp24: 3-byte stores
	} else {
		gl.ColorMask(true, true, true, true)
	}
	gl.UseProgram(k.prog)
	// The output tensor defines the kernel grid (multi-resolution
	// algorithms such as pyramid reductions shrink it per pass).
	gl.Viewport(0, 0, out.Cols, out.Rows)
	switch cfg.Target {
	case TargetTexture:
		if !out.allocated {
			if err := out.AllocateStorage(); err != nil {
				return err
			}
		}
		gl.BindFramebuffer(gles.FRAMEBUFFER, e.fbo)
		gl.FramebufferTexture2D(gles.FRAMEBUFFER, gles.COLOR_ATTACHMENT0, gles.TEXTURE_2D, out.tex, 0)
		if st := gl.CheckFramebufferStatus(gles.FRAMEBUFFER); st != gles.FRAMEBUFFER_COMPLETE {
			gl.BindFramebuffer(gles.FRAMEBUFFER, 0)
			return fmt.Errorf("core: render FBO incomplete (0x%04X)", uint32(st))
		}
		e.invalidate()
		e.bindQuad(k.posLoc)
		gl.DrawArrays(gles.TRIANGLES, 0, 6)
		gl.BindFramebuffer(gles.FRAMEBUFFER, 0)
	case TargetFramebuffer:
		gl.BindFramebuffer(gles.FRAMEBUFFER, 0)
		e.invalidate()
		e.bindQuad(k.posLoc)
		gl.DrawArrays(gles.TRIANGLES, 0, 6)
		prev := gl.BoundTexture()
		gl.BindTexture(gles.TEXTURE_2D, out.tex)
		if (cfg.ReuseOutputTextures || out.pooled) && out.allocated {
			gl.CopyTexSubImage2D(gles.TEXTURE_2D, 0, 0, 0, 0, 0, out.Cols, out.Rows)
		} else {
			gl.CopyTexImage2D(gles.TEXTURE_2D, 0, gles.RGBA, 0, 0, out.Cols, out.Rows, 0)
			out.allocated = true
		}
		gl.BindTexture(gles.TEXTURE_2D, prev)
	}
	return e.glErr("dispatch")
}

// invalidate marks the current render target's previous contents dead,
// via glClear or EXT_discard_framebuffer per the configuration.
func (e *Engine) invalidate() {
	if !*e.cfg.InvalidateTarget {
		return
	}
	if e.cfg.UseDiscardExtension {
		e.gl.DiscardFramebufferEXT(gles.FRAMEBUFFER, []gles.Enum{gles.COLOR_ATTACHMENT0})
		return
	}
	e.gl.Clear(gles.COLOR_BUFFER_BIT)
}

// EndIteration performs the configured windowing synchronisation for one
// benchmark-body iteration (or one multi-pass step).
func (e *Engine) EndIteration() error {
	return e.swapPerMode()
}
