package ffw

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/inject"
)

func testInjector(t *testing.T, p inject.Params) *inject.Injector {
	t.Helper()
	in, err := inject.New(32*1024/4, 400, p)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestInjectorZeroIntensityIdentical: an attached injector that never
// fires must not perturb the access stream at all.
func TestInjectorZeroIntensityIdentical(t *testing.T) {
	plain, _ := newTestCache(t, faultFreeMap(), Options{})
	inj, _ := newTestCache(t, faultFreeMap(), Options{Injector: testInjector(t, inject.Params{Seed: 1})})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(1 << 16))
		if rng.Intn(4) == 0 {
			a, b := plain.Write(addr), inj.Write(addr)
			if a != b {
				t.Fatalf("write %d diverged: %+v vs %+v", i, a, b)
			}
		} else {
			a, b := plain.Read(addr), inj.Read(addr)
			if a != b {
				t.Fatalf("read %d diverged: %+v vs %+v", i, a, b)
			}
		}
	}
	if plain.Stats() != inj.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", plain.Stats(), inj.Stats())
	}
	if fs := inj.FaultStats(); fs != (inject.Stats{}) {
		t.Fatalf("zero-intensity injector produced stats: %+v", fs)
	}
}

// TestTransientRetry: transient flips are corrected by a single retry —
// the access stays a hit, at double latency.
func TestTransientRetry(t *testing.T) {
	in := testInjector(t, inject.Params{Seed: 2, Intensity: 900, TransientWeight: 1})
	c, _ := newTestCache(t, faultFreeMap(), Options{Injector: in})
	c.Read(0x100) // cold fill
	sawRetry := false
	for i := 0; i < 2000; i++ {
		out := c.Read(0x100)
		if !out.Hit {
			t.Fatalf("read %d: transient flip must not turn a hit into a miss", i)
		}
		switch out.Latency {
		case c.HitLatency():
		case 2 * c.HitLatency():
			sawRetry = true
		default:
			t.Fatalf("read %d: unexpected hit latency %d", i, out.Latency)
		}
	}
	if !sawRetry {
		t.Fatal("no retry observed at 90% transient rate")
	}
	fs := c.FaultStats()
	if fs.CorrectedRetry == 0 || fs.Detected != fs.CorrectedRetry {
		t.Fatalf("all detections must be retry-corrected: %+v", fs)
	}
	if fs.Uncorrected != 0 || fs.CorrectedRefetch != 0 || fs.DisabledLines != 0 {
		t.Fatalf("transient-only campaign escalated: %+v", fs)
	}
	if fs.RecoveryCycles != fs.CorrectedRetry*uint64(c.HitLatency()) {
		t.Fatalf("retry recovery cycles %d != %d retries x hit latency", fs.RecoveryCycles, fs.CorrectedRetry)
	}
}

// TestStickyFaultRecovery: intermittent/permanent faults on a stored
// word force a refetch-and-recenter (or frame disable); the detection
// ledger must balance and data keeps flowing.
func TestStickyFaultRecovery(t *testing.T) {
	in := testInjector(t, inject.Params{Seed: 3, Intensity: 500, IntermittentWeight: 1, PermanentWeight: 1})
	c, _ := newTestCache(t, faultFreeMap(), Options{Injector: in})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60000; i++ {
		c.Read(uint64(rng.Intn(1 << 15)))
	}
	fs := c.FaultStats()
	if fs.Detected == 0 {
		t.Fatal("no detections in a 60k-access sticky campaign")
	}
	if fs.Detected != fs.CorrectedRetry+fs.CorrectedRefetch+fs.Uncorrected {
		t.Fatalf("detection ledger does not balance: %+v", fs)
	}
	if fs.CorrectedRetry != 0 {
		t.Fatalf("sticky-only campaign recorded retries: %+v", fs)
	}
	if fs.CorrectedRefetch == 0 {
		t.Fatalf("no refetch recoveries: %+v", fs)
	}
	if fs.RecoveryCycles == 0 {
		t.Fatalf("recovery cycles not accounted: %+v", fs)
	}
	if fs.Injected() == 0 {
		t.Fatalf("injector events missing from merged stats: %+v", fs)
	}
}

// TestRecoveredWindowAvoidsInjectedFaults: after a sticky detection the
// frame's FMAP entry includes the injected faults and the rebuilt window
// sits on surviving entries only.
func TestRecoveredWindowAvoidsInjectedFaults(t *testing.T) {
	in := testInjector(t, inject.Params{Seed: 5, Intensity: 800, PermanentWeight: 1, ClusterMean: 2})
	c, _ := newTestCache(t, faultFreeMap(), Options{Injector: in})
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 40000; i++ {
		c.Read(uint64(rng.Intn(1 << 14)))
	}
	if c.FaultStats().CorrectedRefetch == 0 {
		t.Skip("no refetch recovery happened under this seed")
	}
	cfg := c.cfg
	for set := 0; set < cfg.Sets(); set++ {
		for way := 0; way < cfg.Ways; way++ {
			l := c.frame(set, way)
			if !l.valid || l.stored == 0 {
				continue
			}
			if n, k := bits.OnesCount8(l.stored), FaultFreeEntries(l.fault); n > k {
				t.Fatalf("set %d way %d: %d stored words in %d fault-free entries", set, way, n, k)
			}
			for w := 0; w < WordsPerBlock; w++ {
				if l.stored&(1<<uint(w)) == 0 {
					continue
				}
				e := Remap(l.stored, l.fault, w)
				if e < 0 || l.fault&(1<<uint(e)) != 0 {
					t.Fatalf("set %d way %d: word %d remaps to defective entry %d (fault %08b)", set, way, w, e, l.fault)
				}
			}
		}
	}
}

// TestNextLevelDataStaysCorrect: with data tracking on, every read
// returns the architected value even under heavy injection (FFW's
// safety story: detection always falls back to the next level).
func TestDataCorrectUnderInjection(t *testing.T) {
	in := testInjector(t, inject.Params{Seed: 9, Intensity: 400})
	c, _ := newTestCache(t, faultFreeMap(), Options{TrackData: true, Injector: in})
	rng := rand.New(rand.NewSource(17))
	written := map[uint64]uint32{}
	for i := 0; i < 30000; i++ {
		addr := uint64(rng.Intn(1<<13)) &^ 3
		if rng.Intn(3) == 0 {
			v := rng.Uint32()
			c.WriteWord(addr, v)
			written[addr>>2] = v
			continue
		}
		_, got := c.ReadWord(addr)
		want, ok := written[addr>>2]
		if !ok {
			want = DefaultBacking(addr >> 2)
		}
		if got != want {
			t.Fatalf("access %d: ReadWord(%#x) = %#x, want %#x", i, addr, got, want)
		}
	}
	if c.FaultStats().Detected == 0 {
		t.Fatal("campaign produced no detections; test is vacuous")
	}
}
