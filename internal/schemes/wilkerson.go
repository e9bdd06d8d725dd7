package schemes

import (
	"fmt"

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
	cfg  cache.Config
	geo  cache.Geometry
	next *core.NextLevel
	sets [][]wline // Sets() x (Ways/2) logical lines
	tick uint64

	stats WdisStats
}

type wline struct {
	tag   uint64
	valid bool
	lru   uint64
	fault uint8 // logical slot defective: both physical entries failed
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
	w := &Wilkerson{cfg: cfg, geo: cfg.Geometry(), next: next}
	logical := cfg.Ways / 2
	w.sets = make([][]wline, cfg.Sets())
	lines := make([]wline, cfg.Sets()*logical)
	for s := range w.sets {
		w.sets[s], lines = lines[:logical], lines[logical:]
	}
	for s := 0; s < cfg.Sets(); s++ {
		for l := 0; l < logical; l++ {
			a := fm.BlockMask(s*cfg.Ways + 2*l)
			b := fm.BlockMask(s*cfg.Ways + 2*l + 1)
			w.sets[s][l].fault = a & b
		}
	}
	return w, nil
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
func (w *Wilkerson) HitLatency() int { return w.cfg.HitLatency + 1 }

// Stats returns the scheme's counters.
func (w *Wilkerson) Stats() WdisStats { return w.stats }

func (w *Wilkerson) lookup(addr uint64, allocate bool) lookupResult {
	w.tick++
	set, tag := w.geo.Index(addr), w.geo.Tag(addr)
	word := cache.WordInBlock(addr)
	for l := range w.sets[set] {
		ln := &w.sets[set][l]
		if ln.valid && ln.tag == tag {
			ln.lru = w.tick
			return lookupResult{tagHit: true, wordOK: ln.fault&(1<<uint(word)) == 0}
		}
	}
	if !allocate {
		return lookupResult{}
	}
	best, bestLRU := 0, ^uint64(0)
	for l := range w.sets[set] {
		ln := &w.sets[set][l]
		if !ln.valid {
			best = l
			break
		}
		if ln.lru < bestLRU {
			best, bestLRU = l, ln.lru
		}
	}
	ln := &w.sets[set][best]
	*ln = wline{tag: tag, valid: true, lru: w.tick, fault: ln.fault}
	return lookupResult{filled: true, wordOK: ln.fault&(1<<uint(word)) == 0}
}

// Read implements core.DataCache.
func (w *Wilkerson) Read(addr uint64) core.AccessOutcome {
	w.stats.Accesses++
	r := w.lookup(addr, true)
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
	r := w.lookup(addr, false)
	if r.tagHit && r.wordOK {
		return core.HitOutcome(w.HitLatency())
	}
	return core.AccessOutcome{Latency: w.HitLatency()}
}

// Fetch implements core.InstrCache.
func (w *Wilkerson) Fetch(addr uint64) core.AccessOutcome { return w.Read(addr) }

func errMapSize(got, want int) error {
	return fmt.Errorf("schemes: fault map covers %d words, cache has %d", got, want)
}
