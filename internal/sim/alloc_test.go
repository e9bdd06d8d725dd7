package sim

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dvfs"
)

// TestSteadyStateAccessesDoNotAllocate pins the allocation-free access
// path: once warm, Fetch on every scheme's I-cache and Read/Write on its
// D-cache (with the write buffer and inline L2 beneath) allocate
// nothing. Each scheme is built at the lowest voltage where its fault
// map draw yields.
func TestSteadyStateAccessesDoNotAllocate(t *testing.T) {
	mvs := []int{400, 480, 560, 760}
	for _, s := range AllSchemes() {
		t.Run(string(s), func(t *testing.T) {
			var ic core.InstrCache
			var dc core.DataCache
			var built dvfs.OperatingPoint
			for _, mv := range mvs {
				o := op(t, mv)
				spec := RunSpec{Scheme: s, Op: o, MapSeed: 1}
				next := core.NewNextLevel(core.MemLatencyCycles(o.FreqMHz))
				var err error
				ic, dc, err = buildCaches(spec, drawMap(o.PfailBit, 13), drawMap(o.PfailBit, 14), next)
				if errors.Is(err, ErrYield) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				built = o
				break
			}
			if ic == nil {
				t.Fatalf("no voltage in %v builds %s", mvs, s)
			}
			// 64 KiB of addresses: twice the L1, enough for tag misses,
			// evictions and full FBA/IDC buffers at 400 mV.
			rng := rand.New(rand.NewSource(7))
			addrs := make([]uint64, 4096)
			for i := range addrs {
				addrs[i] = uint64(rng.Intn(1<<16)) &^ 3
			}
			i := 0
			access := func() {
				a := addrs[i%len(addrs)]
				switch i % 4 {
				case 0:
					ic.Fetch(a)
				case 1:
					dc.Write(a)
				default:
					dc.Read(a)
				}
				i++
			}
			for k := 0; k < 200_000; k++ {
				access()
			}
			allocs := testing.AllocsPerRun(100, func() {
				for k := 0; k < 256; k++ {
					access()
				}
			})
			if allocs != 0 {
				t.Errorf("%s at %d mV: %.0f allocations per 256 accesses, want 0", s, built.VoltageMV, allocs)
			}
		})
	}
}
