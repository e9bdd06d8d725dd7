package schemes

import (
	"container/list"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/faultmap"
)

// refFBA is the FBA with its buffer kept as a map plus a boxed
// container/list: the reference the slot-array buffer must match
// access for access.
type refFBA struct {
	m       *maskedCache
	next    *core.NextLevel
	lru     *list.List // front = MRU; values are word addresses
	entries map[uint64]*list.Element
	cap     int
	stats   FBAStats
}

func newRefFBA(t *testing.T, fm *faultmap.Map, next *core.NextLevel, entries int) *refFBA {
	m, err := newMaskedCache("L1-fba", fm)
	if err != nil {
		t.Fatal(err)
	}
	return &refFBA{m: m, next: next, lru: list.New(), entries: map[uint64]*list.Element{}, cap: entries}
}

func (f *refFBA) hitLatency() int { return f.m.cfg.HitLatency + 1 }

func (f *refFBA) bufferHit(wordAddr uint64) bool {
	if e, ok := f.entries[wordAddr]; ok {
		f.lru.MoveToFront(e)
		return true
	}
	return false
}

func (f *refFBA) bufferFill(wordAddr uint64) {
	if _, ok := f.entries[wordAddr]; ok {
		return
	}
	if len(f.entries) >= f.cap {
		back := f.lru.Back()
		f.lru.Remove(back)
		delete(f.entries, back.Value.(uint64))
		f.stats.Evictions++
	}
	f.entries[wordAddr] = f.lru.PushFront(wordAddr)
	f.stats.BufferFills++
}

func (f *refFBA) Read(addr uint64) core.AccessOutcome {
	f.stats.Accesses++
	r := f.m.access(addr, true)
	if r.wordOK {
		if r.tagHit {
			f.stats.MainHits++
			return core.HitOutcome(f.hitLatency())
		}
		f.stats.TagMisses++
		return core.MissOutcome(f.hitLatency(), f.next, addr)
	}
	f.stats.DefectAccesses++
	if !r.tagHit {
		f.stats.TagMisses++
	}
	if f.bufferHit(cache.WordAddr(addr)) {
		f.stats.BufferHits++
		return core.HitOutcome(f.hitLatency())
	}
	out := core.MissOutcome(f.hitLatency(), f.next, addr)
	f.bufferFill(cache.WordAddr(addr))
	return out
}

func (f *refFBA) Write(addr uint64) core.AccessOutcome {
	f.next.WriteWord(addr)
	r := f.m.access(addr, false)
	if r.tagHit && r.wordOK {
		return core.HitOutcome(f.hitLatency())
	}
	if r.tagHit && f.bufferHit(cache.WordAddr(addr)) {
		return core.HitOutcome(f.hitLatency())
	}
	return core.AccessOutcome{Latency: f.hitLatency()}
}

// TestFBABufferMatchesMapListReference drives the FBA and the reference
// with the same random reads and writes over a fault map dense enough
// that about one word entry in seven is defective. Half the accesses
// revisit a hot set of about twice the buffer's capacity (buffer hits),
// half roam 128 KiB (fills and LRU evictions). Outcomes, counters and
// occupancy must agree after every access.
func TestFBABufferMatchesMapListReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 64, 1024} {
		fm := faultmap.Generate(l1Words, 0.005, rand.New(rand.NewSource(int64(capacity))))
		f, err := NewFBA(fm, core.NewNextLevel(100), capacity)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefFBA(t, fm, core.NewNextLevel(100), capacity)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 150_000; i++ {
			word := uint64(rng.Intn(1 << 15))
			if rng.Intn(2) == 0 {
				word = uint64(rng.Intn(2*capacity + 8))
			}
			addr := word * cache.WordBytes
			var got, want core.AccessOutcome
			if rng.Intn(4) == 0 {
				got, want = f.Write(addr), ref.Write(addr)
			} else {
				got, want = f.Read(addr), ref.Read(addr)
			}
			if got != want || f.Stats() != ref.stats || f.Entries() != len(ref.entries) {
				t.Fatalf("capacity %d, access %d (%#x): outcome %+v stats %+v entries %d; reference %+v %+v %d",
					capacity, i, addr, got, f.Stats(), f.Entries(), want, ref.stats, len(ref.entries))
			}
		}
		if st := f.Stats(); st.BufferHits == 0 || st.Evictions == 0 {
			t.Errorf("capacity %d: %d buffer hits, %d evictions; the sequence must exercise both", capacity, st.BufferHits, st.Evictions)
		}
	}
}
