package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestResetEqualsFresh: a cache dirtied in every way it can be — lines
// valid and dirty, direct-mapped mode, disabled frames, replacement
// state, tick and statistics — is after Reset indistinguishable from a
// new one, field by field and over a long random access sequence.
func TestResetEqualsFresh(t *testing.T) {
	for _, repl := range []Replacement{ReplaceLRU, ReplacePLRU, ReplaceFIFO} {
		cfg := Config{Name: "small", SizeBytes: 64 * BlockBytes, Ways: 4, HitLatency: 1,
			WritePolicy: WriteBack, Replacement: repl}
		rng := rand.New(rand.NewSource(int64(repl) + 1))
		used := MustNew(cfg)
		for range 5000 {
			used.Access(uint64(rng.Intn(1<<14)), rng.Intn(3) == 0)
		}
		used.SetMode(DirectMapped)
		used.DisableFrame(1, 2)
		used.DisableFrame(5, 0)
		for range 500 {
			used.Access(uint64(rng.Intn(1<<14)), rng.Intn(3) == 0)
		}

		used.Reset()
		fresh := MustNew(cfg)
		if !reflect.DeepEqual(used, fresh) {
			t.Fatalf("%v: reset cache differs from a new one", repl)
		}
		for i := range 100_000 {
			addr, write := uint64(rng.Intn(1<<14)), rng.Intn(3) == 0
			if a, b := used.Access(addr, write), fresh.Access(addr, write); a != b {
				t.Fatalf("%v access %d: reset %+v, fresh %+v", repl, i, a, b)
			}
		}
		if a, b := used.Stats(), fresh.Stats(); a != b {
			t.Errorf("%v: reset stats %+v, fresh %+v", repl, a, b)
		}
	}
}
