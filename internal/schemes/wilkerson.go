package schemes

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/faultmap"
)

// Wilkerson implements Wilkerson's word-disable scheme [4]: two
// consecutive physical frames combine into one logical line, each word
// slot served by whichever of the two frames has that entry fault-free.
// Capacity and associativity are halved (4-way/32 KB becomes effectively
// 2-way/16 KB) and the combining multiplexers cost one extra cycle
// (Table III).
//
// A logical slot is defective only when *both* physical entries fail.
// Plain word-disable requires every logical slot in the cache to be
// usable — which stops yielding below ~480 mV (the paper's Fig. 10 note);
// the evaluated variant is Wilkerson⁺, which falls back to simple word
// disable (an L2 trip per access) on residual defective slots.
type Wilkerson struct {
	// m holds Sets() x (Ways/2) logical lines; a line's mask marks the
	// logical slots whose two physical entries both failed.
	m    *maskedCache
	next *core.NextLevel

	stats WdisStats
}

// NewWilkersonPlus builds the Wilkerson⁺ cache over the fault map.
func NewWilkersonPlus(fm *faultmap.Map, next *core.NextLevel) (*Wilkerson, error) {
	cfg := cache.L1Config("L1-wilkerson")
	if fm.Words() != cfg.Words() {
		return nil, errMapSize(fm.Words(), cfg.Words())
	}
	if next == nil {
		return nil, errNilNext
	}
	m := newMaskedFrames(cfg, cfg.Ways/2, func(s, l int) uint8 {
		return fm.BlockMask(s*cfg.Ways+2*l) & fm.BlockMask(s*cfg.Ways+2*l+1)
	})
	return &Wilkerson{m: m, next: next}, nil
}

// Coverable reports whether plain Wilkerson word-disable (without the
// simple-wdis supplement) can guarantee architecturally correct execution
// on this fault map: no logical slot may be defective. This is the yield
// criterion behind the paper's "Wilkerson cannot achieve 99.9% chip yield
// below 480mV".
func Coverable(fm *faultmap.Map) bool {
	cfg := cache.L1Config("L1-wilkerson")
	if fm.Words() != cfg.Words() {
		return false
	}
	for s := 0; s < cfg.Sets(); s++ {
		for l := 0; l < cfg.Ways/2; l++ {
			a := fm.BlockMask(s*cfg.Ways + 2*l)
			b := fm.BlockMask(s*cfg.Ways + 2*l + 1)
			if a&b != 0 {
				return false
			}
		}
	}
	return true
}

// Name implements core.DataCache/core.InstrCache.
func (w *Wilkerson) Name() string { return "Wilkerson+" }

// HitLatency implements core.DataCache/core.InstrCache: one extra cycle
// for the word-combining multiplexers.
func (w *Wilkerson) HitLatency() int { return w.m.cfg.HitLatency + 1 }

// Stats returns the scheme's counters.
func (w *Wilkerson) Stats() WdisStats { return w.stats }

// Read implements core.DataCache.
func (w *Wilkerson) Read(addr uint64) core.AccessOutcome {
	w.stats.Accesses++
	r := w.m.access(addr, true)
	if r.tagHit && r.wordOK {
		w.stats.Hits++
		return core.HitOutcome(w.HitLatency())
	}
	if !r.tagHit {
		w.stats.TagMisses++
	}
	if !r.wordOK {
		w.stats.DefectMisses++
	}
	return core.MissOutcome(w.HitLatency(), w.next, addr)
}

// Write implements core.DataCache.
func (w *Wilkerson) Write(addr uint64) core.AccessOutcome {
	w.next.WriteWord(addr)
	r := w.m.access(addr, false)
	if r.tagHit && r.wordOK {
		return core.HitOutcome(w.HitLatency())
	}
	return core.AccessOutcome{Latency: w.HitLatency()}
}

// Fetch implements core.InstrCache.
func (w *Wilkerson) Fetch(addr uint64) core.AccessOutcome { return w.Read(addr) }
