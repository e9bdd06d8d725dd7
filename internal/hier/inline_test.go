package hier_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/hier"
)

// TestLoneCoreNeverSuspends: with one core every event is a delivery
// to the L2, the DRAM or the core itself, so the blocked core services
// all of them in place and its coroutine never yields mid-epoch.
func TestLoneCoreNeverSuspends(t *testing.T) {
	h := newHier(t, 1, hier.DefaultL2Params(dvfs.Nominal()))
	if _, err := h.RunEpoch(context.Background(), 20_000); err != nil {
		t.Fatal(err)
	}
	if reads := h.L2Stats().Reads; reads == 0 {
		t.Fatal("no L2 reads")
	}
	if n := hier.Switches(h, 0); n != 0 {
		t.Errorf("lone core suspended %d times, want 0", n)
	}
}

// TestSharedCoresSuspendOnlyForEachOther: two cores do yield — when
// the other core's event is due first — but a memory-bound core next
// to a compute-bound one does so less often than once per L2 read
// (without in-place service every L2 read suspends).
func TestSharedCoresSuspendOnlyForEachOther(t *testing.T) {
	h, err := hier.New(hier.Config{Cores: 2, L2: hier.DefaultL2Params(dvfs.Nominal())})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range []string{"429.mcf", "crc32"} {
		if err := h.SetRig(i, dvfs.Nominal(), cpu.DefaultConfig(), dfRig(t, b, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.RunEpoch(context.Background(), 80_000); err != nil { // warm the caches
		t.Fatal(err)
	}
	before, readsBefore := hier.Switches(h, 0)+hier.Switches(h, 1), h.L2Stats().Reads
	if _, err := h.RunEpoch(context.Background(), 80_000); err != nil {
		t.Fatal(err)
	}
	switches := hier.Switches(h, 0) + hier.Switches(h, 1) - before
	reads := h.L2Stats().Reads - readsBefore
	t.Logf("%d suspensions for %d L2 reads", switches, reads)
	if switches == 0 || switches >= reads {
		t.Errorf("%d suspensions for %d L2 reads, want some but fewer", switches, reads)
	}
}

// TestInlineErrorAbortsEpoch: an L2 hook failing while a core services
// the engine in place unwinds that core and RunEpoch returns the same
// error, leaving no event queued.
func TestInlineErrorAbortsEpoch(t *testing.T) {
	boom := errors.New("l2 hook failed")
	for _, cores := range []int{1, 2} {
		h := newHier(t, cores, hier.DefaultL2Params(dvfs.Nominal()))
		hier.FailL2ReadAfter(h, cores-1, 25, boom)
		_, err := h.RunEpoch(context.Background(), 20_000)
		if !errors.Is(err, boom) {
			t.Errorf("%d cores: RunEpoch = %v, want the hook's error", cores, err)
		}
	}
}
