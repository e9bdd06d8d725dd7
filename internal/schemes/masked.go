package schemes

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/faultmap"
)

// maskedCache is the shared substrate of the word-disable family
// (Simple-wdis, FBA, IDC, Wilkerson, Bit-fix): a set-associative L1
// whose frames carry the fault mask of their words. A lookup reports
// both the tag outcome and whether the requested word's entry is usable.
// The schemes differ only in how many frames a set offers (all four
// ways, Wilkerson's two combined pairs, Bit-fix's three data ways) and
// how a frame's mask derives from the fault map.
type maskedCache struct {
	cfg   cache.Config
	geo   cache.Geometry
	ways  int     // frames per set
	lines []mline // set-major: frame (set, way) is lines[set*ways+way]
	tick  uint64
}

type mline struct {
	tag   uint64
	lru   uint64
	valid bool
	fault uint8 // defective word entries of this frame
}

// lookupResult describes one masked lookup.
type lookupResult struct {
	tagHit bool
	wordOK bool // requested word's entry is fault-free in the hit/fill frame
	filled bool // a miss brought the block in
}

// newMaskedCache builds the plain word-disable array: every physical
// frame is one frame, masked by its own fault-map block.
func newMaskedCache(name string, fm *faultmap.Map) (*maskedCache, error) {
	cfg := cache.L1Config(name)
	if fm.Words() != cfg.Words() {
		return nil, errMapSize(fm.Words(), cfg.Words())
	}
	return newMaskedFrames(cfg, cfg.Ways, func(set, way int) uint8 {
		return fm.BlockMask(set*cfg.Ways + way)
	}), nil
}

// newMaskedFrames builds an array of ways frames per set over cfg's set
// count, with frame (set, way)'s mask from fault.
func newMaskedFrames(cfg cache.Config, ways int, fault func(set, way int) uint8) *maskedCache {
	m := &maskedCache{cfg: cfg, geo: cfg.Geometry(), ways: ways, lines: make([]mline, cfg.Sets()*ways)}
	for s := 0; s < cfg.Sets(); s++ {
		for w := 0; w < ways; w++ {
			m.lines[s*ways+w].fault = fault(s, w)
		}
	}
	return m
}

// access performs a read-style lookup, allocating on a miss when
// allocate is set: the word-disable family fills the fault-free words
// of a victim frame on a tag miss regardless of whether the requested
// word's entry is usable (its neighbours still benefit).
// allocate=false (the write path) refreshes LRU on a hit but never
// fills.
func (m *maskedCache) access(addr uint64, allocate bool) lookupResult {
	m.tick++
	set, tag := m.geo.Index(addr), m.geo.Tag(addr)
	bit := uint8(1) << uint(cache.WordInBlock(addr))
	i := set * m.ways
	ls := m.lines[i : i+m.ways : i+m.ways]
	for w := range ls {
		l := &ls[w]
		if l.valid && l.tag == tag {
			l.lru = m.tick
			return lookupResult{tagHit: true, wordOK: l.fault&bit == 0}
		}
	}
	if !allocate {
		return lookupResult{}
	}
	// LRU victim (all frames stay usable: even a fully defective frame
	// keeps tags in the robust 8T tag array; it just never supplies
	// words).
	best, bestLRU := 0, ^uint64(0)
	for w := range ls {
		l := &ls[w]
		if !l.valid {
			best = w
			break
		}
		if l.lru < bestLRU {
			best, bestLRU = w, l.lru
		}
	}
	l := &ls[best]
	*l = mline{tag: tag, valid: true, lru: m.tick, fault: l.fault}
	return lookupResult{filled: true, wordOK: l.fault&bit == 0}
}

func errMapSize(got, want int) error {
	return fmt.Errorf("schemes: fault map covers %d words, cache has %d", got, want)
}
