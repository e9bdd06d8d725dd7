package prof

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartCPUWritesProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	stop, err := StartCPU(path)
	if err != nil {
		t.Fatal(err)
	}
	// A second profile cannot start while this one runs.
	if _, err := StartCPU(filepath.Join(t.TempDir(), "other.pprof")); err == nil {
		t.Error("a second concurrent CPU profile started")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("profile not written: %v", err)
	}
}

func TestStartCPUBadPath(t *testing.T) {
	if _, err := StartCPU(filepath.Join(t.TempDir(), "missing", "cpu.pprof")); err == nil {
		t.Error("StartCPU accepted a path in a missing directory")
	}
}
