package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/dvfs"
)

// TestResetEqualsFresh: a NextLevel used at 400 mV — its L2 switched to
// direct-mapped mode with frames disabled, and stores still in the
// write buffer — behaves after Reset to the 760 mV latency exactly like
// a fresh NextLevel, access for access.
func TestResetEqualsFresh(t *testing.T) {
	low, nominal := mustPoint(t, 400), dvfs.Nominal()
	rng := rand.New(rand.NewSource(3))
	// Addresses span 2 MB against the 512 KB L2, for hits and misses.
	addr := func() uint64 { return uint64(rng.Intn(2<<20)) &^ 3 }

	used := NewNextLevel(MemLatencyCycles(low.FreqMHz))
	for range 20_000 {
		used.ReadBlock(addr())
		used.WriteWord(addr())
	}
	used.L2().SetMode(cache.DirectMapped)
	used.L2().DisableFrame(0, 0)
	used.L2().DisableFrame(7, 3)
	for range 1000 {
		used.ReadBlock(addr())
	}
	used.WriteWord(addr())
	if used.wbLen == 0 {
		t.Fatal("the write buffer should hold stores before the reset")
	}

	lat := MemLatencyCycles(nominal.FreqMHz)
	if err := used.Reset(lat); err != nil {
		t.Fatal(err)
	}
	fresh := NewNextLevel(lat)
	if !reflect.DeepEqual(used, fresh) {
		t.Fatal("reset NextLevel differs from a new one")
	}

	for i := range 150_000 {
		switch op := rng.Intn(3); {
		case op == 1:
			a := addr()
			used.WriteWord(a)
			fresh.WriteWord(a)
		case op == 0 || fresh.wbLen == 0:
			a := addr()
			la, ha := used.ReadBlock(a)
			lb, hb := fresh.ReadBlock(a)
			if la != lb || ha != hb {
				t.Fatalf("op %d read %#x: reset (%d, %v), fresh (%d, %v)", i, a, la, ha, lb, hb)
			}
		default:
			// Drain: a read of a buffered block forces it out first.
			a := fresh.wb[rng.Intn(fresh.wbLen)]*cache.BlockBytes + 4
			la, ha := used.ReadBlock(a)
			lb, hb := fresh.ReadBlock(a)
			if la != lb || ha != hb {
				t.Fatalf("op %d drain %#x: reset (%d, %v), fresh (%d, %v)", i, a, la, ha, lb, hb)
			}
		}
	}
	if a, b := used.L2().Stats(), fresh.L2().Stats(); a != b {
		t.Errorf("L2 stats: reset %+v, fresh %+v", a, b)
	}
	if used.DemandReads() != fresh.DemandReads() || used.MemReads() != fresh.MemReads() ||
		used.WordWrites() != fresh.WordWrites() || used.BlockDrains() != fresh.BlockDrains() {
		t.Errorf("ledgers: reset %d/%d/%d/%d, fresh %d/%d/%d/%d",
			used.DemandReads(), used.MemReads(), used.WordWrites(), used.BlockDrains(),
			fresh.DemandReads(), fresh.MemReads(), fresh.WordWrites(), fresh.BlockDrains())
	}
	if fresh.DemandReads() == 0 || fresh.BlockDrains() == 0 {
		t.Error("the random sequence exercised no reads or drains")
	}
}

func TestResetRejects(t *testing.T) {
	if err := NewNextLevel(10).Reset(0); err == nil {
		t.Error("Reset accepted a zero-cycle memory latency")
	}
	if err := NewNextLevelOver(&logLower{written: map[uint64]bool{}}).Reset(10); err == nil {
		t.Error("Reset accepted a NextLevel over a custom backend")
	}
}

func mustPoint(t *testing.T, mv int) dvfs.OperatingPoint {
	t.Helper()
	op, err := dvfs.PointAt(mv)
	if err != nil {
		t.Fatal(err)
	}
	return op
}
