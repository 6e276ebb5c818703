package shader

import "testing"

// Regression tests for Env.Reset's output-zeroing skip: an Env reused
// across invocations must still present zeroed outputs to any program NOT
// proven to write them all, while proven programs may keep the stale
// values (every component is overwritten before anyone can read it).

// TestResetZeroesOutputsWhenUnproven is the regression the skip must never
// reintroduce: a program that can exit without writing gl_FragColor reads
// zeros from a recycled Env, not the previous invocation's pixel.
func TestResetZeroesOutputsWhenUnproven(t *testing.T) {
	p := compileFS(t, `
uniform float x;
void main() {
	if (x > 0.5) {
		gl_FragColor = vec4(x);
	}
}`)
	if p.OutputsAlwaysWritten {
		t.Fatal("conditionally-writing program must not be proven always-written")
	}
	env := NewEnv(p)
	env.Uniforms[0] = Vec4{0.9, 0, 0, 0}
	if err := Run(p, env); err != nil {
		t.Fatal(err)
	}
	if env.Outputs[0] == (Vec4{}) {
		t.Fatal("setup: first invocation should have written the output")
	}

	// Second invocation takes the non-writing path: it must see zeros, not
	// the first invocation's color.
	env.Reset()
	for i := range env.Outputs {
		if env.Outputs[i] != (Vec4{}) {
			t.Fatalf("output %d survived Reset of a non-always-writing program: %v",
				i, env.Outputs[i])
		}
	}
	env.Uniforms[0] = Vec4{0.1, 0, 0, 0}
	if err := Run(p, env); err != nil {
		t.Fatal(err)
	}
	if env.Outputs[0] != (Vec4{}) {
		t.Fatalf("non-writing invocation produced %v, want zeros", env.Outputs[0])
	}
}

// TestResetSkipsOutputZeroingWhenProven checks the skip actually engages
// for proven programs — stale values remain right after Reset — and that
// running the program makes them unobservable anyway.
func TestResetSkipsOutputZeroingWhenProven(t *testing.T) {
	p := compileFS(t, `
uniform float x;
void main() { gl_FragColor = vec4(x); }`)
	if !p.OutputsAlwaysWritten {
		t.Fatal("unconditional write should be proven always-written")
	}
	env := NewEnv(p)
	for i := range env.Outputs {
		env.Outputs[i] = Vec4{13, 13, 13, 13}
	}
	env.Reset()
	if env.Outputs[0] != (Vec4{13, 13, 13, 13}) {
		t.Error("Reset zeroed outputs despite the always-written proof")
	}
	env.Uniforms[0] = Vec4{0.25, 0, 0, 0}
	if err := Run(p, env); err != nil {
		t.Fatal(err)
	}
	if env.Outputs[0] != (Vec4{0.25, 0.25, 0.25, 0.25}) {
		t.Fatalf("got %v after run", env.Outputs[0])
	}
}

// TestResetDebugOverrideZeroesOutputs: debugClearTemps disables the output
// skip along with the temp skip.
func TestResetDebugOverrideZeroesOutputs(t *testing.T) {
	p := compileFS(t, `void main() { gl_FragColor = vec4(1.0); }`)
	if !p.OutputsAlwaysWritten {
		t.Fatal("expected proven program")
	}
	env := NewEnv(p)
	for i := range env.Outputs {
		env.Outputs[i] = Vec4{5, 5, 5, 5}
	}
	debugClearTemps = true
	defer func() { debugClearTemps = false }()
	env.Reset()
	if env.Outputs[0] != (Vec4{}) {
		t.Error("debugClearTemps did not force output zeroing")
	}
}
