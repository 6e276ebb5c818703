package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFailedFigureFlushesCPUProfile pins the exit path: a figure that
// fails (negative -iters) exits 1 and still writes the CPU profile, which
// only happens when the deferred StopCPUProfile runs.
func TestFailedFigureFlushesCPUProfile(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-fig", "3", "-iters", "-3", "-cpuprofile", prof}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "figure 3") {
		t.Errorf("stderr %q does not name the failed figure", stderr.String())
	}
	fi, err := os.Stat(prof)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Error("CPU profile is empty: the deferred profile writer did not run")
	}
}

func TestUnknownFigureExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-fig", "6"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout %q, want nothing", stdout.String())
	}
}
