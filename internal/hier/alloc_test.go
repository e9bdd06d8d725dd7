package hier_test

import (
	"context"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/hier"
)

// TestEpochAllocationsDoNotGrowWithLength: once warm, an epoch's
// allocations are per-epoch set-up only (the coroutine, the results
// slice) — not per message, per L2 fill or per instruction — so a
// 2-core epoch allocates as often at 80k instructions as at 20k.
func TestEpochAllocationsDoNotGrowWithLength(t *testing.T) {
	h, err := hier.New(hier.Config{Cores: 2, L2: hier.DefaultL2Params(dvfs.Nominal())})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range []string{"429.mcf", "crc32"} {
		if err := h.SetRig(i, dvfs.Nominal(), cpu.DefaultConfig(), dfRig(t, b, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	epoch := func(n uint64) func() {
		return func() {
			if _, err := h.RunEpoch(context.Background(), n); err != nil {
				t.Fatal(err)
			}
		}
	}
	epoch(80_000)() // warm: queue, MSHR list and free lists at their high-water marks
	short := testing.AllocsPerRun(3, epoch(20_000))
	long := testing.AllocsPerRun(3, epoch(80_000))
	if h.L2Stats().DramReads == 0 {
		t.Fatal("no L2 misses: the fill path was not exercised")
	}
	if long != short {
		t.Errorf("epoch allocations grow with length: %.0f at 20k, %.0f at 80k instructions", short, long)
	}
}
