package schemes

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/faultmap"
)

// maskedCache is the shared substrate of the word-disable family
// (Simple-wdis, FBA, IDC): a set-associative L1 whose frames carry the
// fault mask of their physical words. A lookup reports both the tag
// outcome and whether the requested word's physical entry is usable.
type maskedCache struct {
	cfg  cache.Config
	geo  cache.Geometry
	sets [][]mline
	tick uint64
}

type mline struct {
	tag   uint64
	valid bool
	lru   uint64
	fault uint8 // defective physical word entries of this frame
}

// lookupResult describes one masked lookup.
type lookupResult struct {
	tagHit bool
	wordOK bool // requested word's entry is fault-free in the hit/fill frame
	filled bool // a miss brought the block in
}

func newMaskedCache(name string, fm *faultmap.Map) (*maskedCache, error) {
	cfg := cache.L1Config(name)
	if fm.Words() != cfg.Words() {
		return nil, fmt.Errorf("schemes: fault map covers %d words, cache has %d", fm.Words(), cfg.Words())
	}
	m := &maskedCache{cfg: cfg, geo: cfg.Geometry()}
	m.sets = make([][]mline, cfg.Sets())
	lines := make([]mline, cfg.Blocks())
	for s := range m.sets {
		m.sets[s], lines = lines[:cfg.Ways], lines[cfg.Ways:]
	}
	for s := 0; s < cfg.Sets(); s++ {
		for w := 0; w < cfg.Ways; w++ {
			m.sets[s][w].fault = fm.BlockMask(s*cfg.Ways + w)
		}
	}
	return m, nil
}

// access performs a read-style lookup with allocate-on-miss: the word-
// disable family fills the fault-free words of a victim frame on a tag
// miss regardless of whether the requested word's entry is usable (its
// neighbours still benefit). touch=false probes without state change.
func (m *maskedCache) access(addr uint64, allocate bool) lookupResult {
	m.tick++
	set, tag := m.geo.Index(addr), m.geo.Tag(addr)
	word := cache.WordInBlock(addr)
	for w := range m.sets[set] {
		l := &m.sets[set][w]
		if l.valid && l.tag == tag {
			l.lru = m.tick
			return lookupResult{tagHit: true, wordOK: l.fault&(1<<uint(word)) == 0}
		}
	}
	if !allocate {
		return lookupResult{}
	}
	// LRU victim (all frames stay usable: even a fully defective frame
	// keeps tags in the robust 8T tag array; it just never supplies
	// words).
	best, bestLRU := 0, ^uint64(0)
	for w := range m.sets[set] {
		l := &m.sets[set][w]
		if !l.valid {
			best = w
			break
		}
		if l.lru < bestLRU {
			best, bestLRU = w, l.lru
		}
	}
	l := &m.sets[set][best]
	*l = mline{tag: tag, valid: true, lru: m.tick, fault: l.fault}
	return lookupResult{filled: true, wordOK: l.fault&(1<<uint(word)) == 0}
}
