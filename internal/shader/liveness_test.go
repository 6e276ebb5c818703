package shader

import (
	"testing"

	"gles2gpgpu/internal/glsl"
)

func compileFS(t *testing.T, src string) *Program {
	t.Helper()
	cs, err := glsl.Frontend(hdr+src, glsl.CompileOptions{Stage: glsl.StageFragment})
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	p, err := Compile(cs)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func TestWritesBeforeReadsStraightLine(t *testing.T) {
	// The shape of every GPGPU kernel in this repository: declare, write,
	// accumulate, emit. The analysis must prove it clean so parallel
	// shading and Reset's temp-zeroing skip both engage.
	p := compileFS(t, `
uniform float x;
void main() {
	float acc = 0.0;
	for (int i = 0; i < 4; i++) {
		acc += x * 0.25;
	}
	gl_FragColor = vec4(acc);
}`)
	if !p.WritesBeforeReads {
		t.Error("straight-line accumulator not proven write-before-read")
	}
}

func TestWritesBeforeReadsConditionalWrite(t *testing.T) {
	// The write to t happens under a branch; the read after the if may
	// observe a stale value, so the analysis must reject the program.
	p := compileFS(t, `
uniform float x;
void main() {
	float t;
	if (x > 0.5) {
		t = x;
	}
	gl_FragColor = vec4(t);
}`)
	if p.WritesBeforeReads {
		t.Error("conditionally-written temp wrongly proven write-before-read")
	}
}

func TestWritesBeforeReadsWriteBeforeBranchStaysProven(t *testing.T) {
	// A write that precedes the first branch always executes, so reads
	// after the branch are covered.
	p := compileFS(t, `
uniform float x;
void main() {
	float t = x;
	if (x > 0.5) {
		t = t * 2.0;
	}
	gl_FragColor = vec4(t);
}`)
	if !p.WritesBeforeReads {
		t.Error("pre-branch write not credited")
	}
}

func TestOutputsAlwaysWritten(t *testing.T) {
	p := compileFS(t, `
uniform float x;
void main() { gl_FragColor = vec4(x); }`)
	if !p.OutputsAlwaysWritten {
		t.Error("unconditional gl_FragColor write not proven")
	}

	p = compileFS(t, `
uniform float x;
void main() {
	if (x > 0.5) {
		gl_FragColor = vec4(x);
	}
}`)
	if p.OutputsAlwaysWritten {
		t.Error("conditional gl_FragColor write wrongly proven always-written")
	}

	// A discard path does not count as an exit that leaves outputs unset:
	// discarded fragments' outputs are never read.
	p = compileFS(t, `
uniform float x;
void main() {
	if (x > 0.5) {
		discard;
	}
	gl_FragColor = vec4(x);
}`)
	if !p.OutputsAlwaysWritten {
		t.Error("discard path wrongly disproved always-written outputs")
	}
}

func TestResetSkipsTempZeroingWhenProven(t *testing.T) {
	p := compileFS(t, `
uniform float x;
void main() { float a = x + 1.0; gl_FragColor = vec4(a); }`)
	if !p.WritesBeforeReads {
		t.Fatal("expected proven program")
	}
	env := NewEnv(p)
	for i := range env.Temps {
		env.Temps[i] = Vec4{42, 42, 42, 42}
	}
	env.Reset()
	if env.Temps[0] != (Vec4{42, 42, 42, 42}) {
		t.Error("Reset zeroed temps despite write-before-read proof")
	}
	for i := range env.Outputs {
		if env.Outputs[i] != (Vec4{}) {
			t.Error("Reset must always zero outputs")
		}
	}

	// The debug override restores the old exhaustive zeroing.
	debugClearTemps = true
	defer func() { debugClearTemps = false }()
	env.Reset()
	if env.Temps[0] != (Vec4{}) {
		t.Error("debugClearTemps did not force temp zeroing")
	}
}

func TestResetZeroesTempsWhenUnproven(t *testing.T) {
	p := compileFS(t, `
uniform float x;
void main() {
	float t;
	if (x > 0.5) { t = x; }
	gl_FragColor = vec4(t);
}`)
	env := NewEnv(p)
	for i := range env.Temps {
		env.Temps[i] = Vec4{7, 7, 7, 7}
	}
	env.Reset()
	for i := range env.Temps {
		if env.Temps[i] != (Vec4{}) {
			t.Fatalf("temp %d survived Reset of an unproven program", i)
		}
	}
}
