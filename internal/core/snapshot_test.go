package core

import (
	"testing"

	"gles2gpgpu/internal/timing"
)

// TestSnapshotSeparatesBackBuffers: a present on an idle machine leaves
// the machine's fingerprint unchanged but flips the back buffer, which
// decides where the next framebuffer draw lands, so the engine snapshots
// must not repeat each other and Shift must refuse to cross them.
func TestSnapshotSeparatesBackBuffers(t *testing.T) {
	cfg := baseConfig(16)
	cfg.Swap = SwapNoVsync
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Machine().CPU.Advance(timing.Second) // age every set-up time past its floor
	s0 := e.Snapshot()
	if err := e.EndIteration(); err != nil {
		t.Fatal(err)
	}
	s1 := e.Snapshot()
	if !s0.machine.Repeats(s1.machine) {
		t.Fatal("an idle present changed the machine fingerprint")
	}
	if s0.Repeats(s1) {
		t.Error("snapshots on different back buffers repeat each other")
	}
	if err := e.Shift(1, s0, s1); err == nil {
		t.Error("Shift crossed different back buffers")
	}
}
