package gles

import (
	"crypto/sha256"
	"fmt"
	"math"

	"gles2gpgpu/internal/glsl"
	"gles2gpgpu/internal/shader"
)

// shaderCacheKey identifies a compiled shader by stage and source hash.
type shaderCacheKey struct {
	stage Enum
	hash  [sha256.Size]byte
}

// shaderCacheEntry holds a successful compilation. Compiled Programs are
// immutable after Compile, so sharing one across shader objects (and the
// draws that execute it) is safe.
type shaderCacheEntry struct {
	checked  *glsl.CheckedShader
	compiled *shader.Program
}

func f32Bits(v float32) uint32     { return math.Float32bits(v) }
func f32FromBits(b uint32) float32 { return math.Float32frombits(b) }

// CreateShader creates a shader object.
func (c *Context) CreateShader(stype Enum) uint32 {
	c.apiCost()
	if stype != VERTEX_SHADER && stype != FRAGMENT_SHADER {
		c.setErr(INVALID_ENUM)
		return 0
	}
	name := c.genName()
	c.shaders[name] = &Shader{name: name, stype: stype}
	return name
}

// ShaderSource sets the GLSL source.
func (c *Context) ShaderSource(name uint32, src string) {
	c.apiCost()
	s, ok := c.shaders[name]
	if !ok {
		c.setErr(INVALID_VALUE)
		return
	}
	s.source = src
}

// CompileShader runs the full front end and back end. Compilation status
// and logs are queried with GetShaderiv / GetShaderInfoLog, as in GL.
func (c *Context) CompileShader(name uint32) {
	c.apiCost()
	s, ok := c.shaders[name]
	if !ok {
		c.setErr(INVALID_VALUE)
		return
	}
	stage := glsl.StageVertex
	if s.stype == FRAGMENT_SHADER {
		stage = glsl.StageFragment
	}
	s.compiled, s.checked, s.compileErr = nil, nil, nil
	// Multi-pass kernels rebuild byte-identical shaders every pass (the
	// reduction ladder, sgemm's double-buffered passes); memoise successful
	// compilations per context so each distinct source compiles once.
	key := shaderCacheKey{stage: s.stype, hash: sha256.Sum256([]byte(s.source))}
	if e, ok := c.progCache[key]; ok {
		s.checked, s.compiled = e.checked, e.compiled
		return
	}
	// Cross-context cache (worker pools sharing kernels): entries are
	// published fully built, so a hit needs no further work beyond copying
	// it into the per-context cache.
	if c.sharedCache != nil {
		if e, ok := c.sharedCache.lookup(key); ok {
			s.checked, s.compiled = e.checked, e.compiled
			c.progCache[key] = e
			return
		}
	}
	cs, err := glsl.Frontend(s.source, glsl.CompileOptions{Stage: stage})
	if err != nil {
		s.compileErr = err
		return
	}
	prog, err := shader.Compile(cs)
	if err != nil {
		s.compileErr = err
		return
	}
	// Device implementation limits (the paper's block-size ceiling) are
	// enforced at compile time, like real drivers that refuse shaders
	// exceeding their instruction or texture-access maxima.
	if err := prog.CheckLimits(c.prof.Limits); err != nil {
		s.compileErr = err
		return
	}
	prog.Source = s.source
	s.checked = cs
	s.compiled = prog
	c.progCache[key] = shaderCacheEntry{checked: cs, compiled: prog}
	if c.sharedCache != nil {
		// Publish only after the program is fully built (limits checked):
		// other contexts execute it as-is. A concurrent first compile in
		// two contexts at worst compiles twice; last store wins and both
		// artefacts are individually correct.
		c.sharedCache.store(key, shaderCacheEntry{checked: cs, compiled: prog})
	}
}

// GetShaderiv queries COMPILE_STATUS (1/0).
func (c *Context) GetShaderiv(name uint32, pname Enum) int {
	s, ok := c.shaders[name]
	if !ok {
		c.setErr(INVALID_VALUE)
		return 0
	}
	if pname != COMPILE_STATUS {
		c.setErr(INVALID_ENUM)
		return 0
	}
	if s.compiled != nil {
		return 1
	}
	return 0
}

// GetShaderInfoLog returns the compile diagnostics.
func (c *Context) GetShaderInfoLog(name uint32) string {
	s, ok := c.shaders[name]
	if !ok {
		c.setErr(INVALID_VALUE)
		return ""
	}
	if s.compileErr != nil {
		return s.compileErr.Error()
	}
	return ""
}

// ShaderCompileError returns the error whose text GetShaderInfoLog
// reports, so callers can match it with errors.As (a *shader.LimitError
// for an exceeded implementation limit). nil when the shader compiled or
// does not exist.
func (c *Context) ShaderCompileError(name uint32) error {
	if s, ok := c.shaders[name]; ok {
		return s.compileErr
	}
	return nil
}

// DeleteShader removes a shader object.
func (c *Context) DeleteShader(name uint32) {
	c.apiCost()
	delete(c.shaders, name)
}

// CreateProgram creates a program object.
func (c *Context) CreateProgram() uint32 {
	c.apiCost()
	name := c.genName()
	c.programs[name] = &Program{name: name}
	return name
}

// AttachShader attaches a compiled shader object.
func (c *Context) AttachShader(prog, shaderName uint32) {
	c.apiCost()
	p, ok := c.programs[prog]
	if !ok {
		c.setErr(INVALID_VALUE)
		return
	}
	s, ok := c.shaders[shaderName]
	if !ok {
		c.setErr(INVALID_VALUE)
		return
	}
	if s.stype == VERTEX_SHADER {
		p.vs = s
	} else {
		p.fs = s
	}
}

// LinkProgram links the attached shaders: varying matching, uniform
// location assignment and resource-limit checks.
func (c *Context) LinkProgram(prog uint32) {
	c.apiCost()
	p, ok := c.programs[prog]
	if !ok {
		c.setErr(INVALID_VALUE)
		return
	}
	p.linked = false
	p.linkErr = nil
	if p.vs == nil || p.fs == nil {
		p.linkErr = fmt.Errorf("link: program needs both a vertex and a fragment shader")
		return
	}
	if p.vs.compiled == nil || p.fs.compiled == nil {
		p.linkErr = fmt.Errorf("link: attached shaders are not successfully compiled")
		return
	}
	vp, fp := p.vs.compiled, p.fs.compiled
	if p.fs.checked.VaryingVectors > c.prof.Limits.MaxVaryingVectors {
		p.linkErr = fmt.Errorf("link: %d varying vectors exceed the limit of %d",
			p.fs.checked.VaryingVectors, c.prof.Limits.MaxVaryingVectors)
		return
	}
	if len(vp.Inputs) > c.prof.Limits.MaxAttributes {
		p.linkErr = fmt.Errorf("link: %d attributes exceed the limit of %d", len(vp.Inputs), c.prof.Limits.MaxAttributes)
		return
	}
	if err := p.link(vp, fp); err != nil {
		p.linkErr = fmt.Errorf("link: fragment %w", err)
	}
	if c.envProg == p {
		c.envProg = nil // the draw Envs were sized for the old shaders
	}
}

// link is the link step LinkProgram and ComposePrograms share: it matches
// every fragment input to the vertex output of the same name
// (gl_FragCoord and friends are hardware-supplied), merges the two
// stages' uniforms into one location table by name, and installs vp and
// fp with fresh uniform state. Relinking drops the previous lane form.
// Limit checks are the caller's.
func (p *Program) link(vp, fp *shader.Program) error {
	varyingMap := make([]int, fp.NumInputs)
	for i := range varyingMap {
		varyingMap[i] = -1
	}
	p.fragCoordReg = -1
	p.pointCoordReg = -1
	for _, in := range fp.Inputs {
		switch in.Name {
		case "gl_FragCoord":
			p.fragCoordReg = in.Reg
			continue
		case "gl_PointCoord":
			p.pointCoordReg = in.Reg
			continue
		case "gl_FrontFacing":
			continue // filled with defaults at raster time
		}
		out, ok := vp.LookupOutput(in.Name)
		if !ok {
			return fmt.Errorf("varying %q is not written by the vertex shader", in.Name)
		}
		for r := 0; r < varRegs(in.Type); r++ {
			varyingMap[in.Reg+r] = out.Reg + r
		}
	}

	locs := p.locs[:0]
	seen := map[string]int{}
	addUniform := func(u shader.UniformInfo, isVS bool) {
		idx, ok := seen[u.Name]
		if !ok {
			locs = append(locs, uniformLoc{name: u.Name, typ: u.Type, vsReg: -1, fsReg: -1, regs: u.Regs, samplerIdx: -1})
			idx = len(locs) - 1
			seen[u.Name] = idx
		}
		if isVS {
			locs[idx].vsReg = u.Reg
		} else {
			locs[idx].fsReg = u.Reg
			locs[idx].samplerIdx = u.SamplerIdx
		}
	}
	for _, u := range vp.Uniforms {
		addUniform(u, true)
	}
	for _, u := range fp.Uniforms {
		addUniform(u, false)
	}

	p.varyingMap, p.locs = varyingMap, locs
	p.vsProg, p.fsProg = vp, fp
	p.vsUniforms = make([]shader.Vec4, maxInt(vp.NumUniform, 1))
	p.fsUniforms = make([]shader.Vec4, maxInt(fp.NumUniform, 1))
	p.samplerUnits = make([]int, len(fp.Samplers))
	p.attribs = vp.Inputs
	p.lanes = nil
	p.linked = true
	return nil
}

func varRegs(t glsl.Type) int {
	per := 1
	if t.IsMatrix() {
		per = t.MatrixCols()
	}
	if t.ArrayLen > 0 {
		return per * t.ArrayLen
	}
	return per
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// GetProgramiv queries LINK_STATUS.
func (c *Context) GetProgramiv(name uint32, pname Enum) int {
	p, ok := c.programs[name]
	if !ok {
		c.setErr(INVALID_VALUE)
		return 0
	}
	if pname != LINK_STATUS {
		c.setErr(INVALID_ENUM)
		return 0
	}
	if p.linked {
		return 1
	}
	return 0
}

// GetProgramInfoLog returns link diagnostics.
func (c *Context) GetProgramInfoLog(name uint32) string {
	p, ok := c.programs[name]
	if !ok {
		c.setErr(INVALID_VALUE)
		return ""
	}
	if p.linkErr != nil {
		return p.linkErr.Error()
	}
	return ""
}

// DeleteProgram removes a program object.
func (c *Context) DeleteProgram(name uint32) {
	c.apiCost()
	delete(c.programs, name)
	if c.current == name {
		c.current = 0
	}
}

// UseProgram selects the program for subsequent draws.
func (c *Context) UseProgram(name uint32) {
	c.apiCost()
	if name != 0 {
		p, ok := c.programs[name]
		if !ok || !p.linked {
			c.setErr(INVALID_OPERATION)
			return
		}
	}
	c.current = name
}

// GetUniformLocation returns a location handle (-1 if absent, like GL).
func (c *Context) GetUniformLocation(prog uint32, name string) int {
	c.apiCost()
	p, ok := c.programs[prog]
	if !ok || !p.linked {
		c.setErr(INVALID_OPERATION)
		return -1
	}
	for i := range p.locs {
		if p.locs[i].name == name {
			return i + 1
		}
	}
	return -1
}

// GetAttribLocation returns the attribute slot for a vertex attribute.
func (c *Context) GetAttribLocation(prog uint32, name string) int {
	c.apiCost()
	p, ok := c.programs[prog]
	if !ok || !p.linked {
		c.setErr(INVALID_OPERATION)
		return -1
	}
	for i, a := range p.attribs {
		if a.Name == name {
			_ = i
			return a.Reg
		}
	}
	return -1
}

func (c *Context) uniformSlot(loc int) (*Program, *uniformLoc) {
	p := c.programs[c.current]
	if p == nil || !p.linked {
		c.setErr(INVALID_OPERATION)
		return nil, nil
	}
	if loc <= 0 || loc > len(p.locs) {
		if loc == -1 {
			return nil, nil // silently ignored, like GL
		}
		c.setErr(INVALID_OPERATION)
		return nil, nil
	}
	return p, &p.locs[loc-1]
}

// setUniformVec writes one register-worth of data to both stages.
func setUniformVec(p *Program, u *uniformLoc, reg int, v shader.Vec4) {
	if u.vsReg >= 0 {
		p.vsUniforms[u.vsReg+reg] = v
	}
	if u.fsReg >= 0 {
		p.fsUniforms[u.fsReg+reg] = v
	}
}

// Uniform1f sets a float uniform.
func (c *Context) Uniform1f(loc int, x float32) { c.uniformNf(loc, [4]float32{x, 0, 0, 0}) }

// Uniform2f sets a vec2 uniform.
func (c *Context) Uniform2f(loc int, x, y float32) { c.uniformNf(loc, [4]float32{x, y, 0, 0}) }

// Uniform3f sets a vec3 uniform.
func (c *Context) Uniform3f(loc int, x, y, z float32) { c.uniformNf(loc, [4]float32{x, y, z, 0}) }

// Uniform4f sets a vec4 uniform.
func (c *Context) Uniform4f(loc int, x, y, z, w float32) { c.uniformNf(loc, [4]float32{x, y, z, w}) }

func (c *Context) uniformNf(loc int, v [4]float32) {
	c.apiCost()
	p, u := c.uniformSlot(loc)
	if u == nil {
		return
	}
	if u.samplerIdx >= 0 {
		c.setErr(INVALID_OPERATION)
		return
	}
	setUniformVec(p, u, 0, shader.Vec4(v))
}

// Uniform1i sets an int or sampler uniform. For samplers the value is the
// texture unit.
func (c *Context) Uniform1i(loc int, v int) {
	c.apiCost()
	p, u := c.uniformSlot(loc)
	if u == nil {
		return
	}
	if u.samplerIdx >= 0 {
		if v < 0 || v >= MaxTextureUnits {
			c.setErr(INVALID_VALUE)
			return
		}
		p.samplerUnits[u.samplerIdx] = v
		return
	}
	setUniformVec(p, u, 0, shader.Vec4{float32(v), 0, 0, 0})
}

// Uniform1fv sets a float array uniform.
func (c *Context) Uniform1fv(loc int, vals []float32) {
	c.apiCost()
	p, u := c.uniformSlot(loc)
	if u == nil {
		return
	}
	for i, v := range vals {
		if i >= u.regs {
			break
		}
		setUniformVec(p, u, i, shader.Vec4{v, 0, 0, 0})
	}
}

// Uniform4fv sets a vec4 array uniform (count inferred from len/4).
func (c *Context) Uniform4fv(loc int, vals []float32) {
	c.apiCost()
	p, u := c.uniformSlot(loc)
	if u == nil {
		return
	}
	for i := 0; i*4+3 < len(vals); i++ {
		if i >= u.regs {
			break
		}
		setUniformVec(p, u, i, shader.Vec4{vals[i*4], vals[i*4+1], vals[i*4+2], vals[i*4+3]})
	}
}

// UniformMatrix4fv sets a mat4 uniform from 16 column-major floats.
func (c *Context) UniformMatrix4fv(loc int, vals []float32) {
	c.apiCost()
	p, u := c.uniformSlot(loc)
	if u == nil {
		return
	}
	if len(vals) < 16 {
		c.setErr(INVALID_VALUE)
		return
	}
	for col := 0; col < 4; col++ {
		setUniformVec(p, u, col, shader.Vec4{vals[col*4], vals[col*4+1], vals[col*4+2], vals[col*4+3]})
	}
}

// UniformMatrix2fv sets a mat2 uniform from 4 column-major floats.
func (c *Context) UniformMatrix2fv(loc int, vals []float32) {
	c.apiCost()
	p, u := c.uniformSlot(loc)
	if u == nil {
		return
	}
	if len(vals) < 4 {
		c.setErr(INVALID_VALUE)
		return
	}
	for col := 0; col < 2; col++ {
		setUniformVec(p, u, col, shader.Vec4{vals[col*2], vals[col*2+1], 0, 0})
	}
}
