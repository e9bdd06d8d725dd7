package schemes

import (
	"errors"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/faultmap"
)

// IDC is the Inquisitive Defect Cache [21]: like the FBA it backs a
// word-disable main array with an auxiliary store for in-use defective
// words, but the auxiliary structure is a set-associative cache rather
// than a CAM, so its effectiveness is bounded by both capacity and the
// feasible associativity (conflicts evict live words). One extra cycle on
// the L1 path (Table III). The paper evaluates 64 entries (IDC) and an
// optimistic 1024 entries (IDC⁺).
type IDC struct {
	name string
	m    *maskedCache
	next *core.NextLevel

	setMask uint64     // auxiliary sets - 1 (a power of two)
	tags    []idcEntry // set-major: entry (set, i) is tags[set*IDCAssoc+i]
	tick    uint64

	stats FBAStats // same event shape as the FBA
}

type idcEntry struct {
	wordAddr uint64
	valid    bool
	lru      uint64
}

// IDCAssoc is the auxiliary cache's associativity.
const IDCAssoc = 4

// NewIDC builds the scheme with the given total entry count, which must
// be a power-of-two multiple of the associativity.
func NewIDC(fm *faultmap.Map, next *core.NextLevel, entries int) (*IDC, error) {
	if entries < IDCAssoc {
		return nil, errors.New("schemes: IDC needs >= one set of entries")
	}
	sets := entries / IDCAssoc
	if sets*IDCAssoc != entries || bits.OnesCount(uint(sets)) != 1 {
		return nil, errors.New("schemes: IDC entries must be a power-of-two multiple of the associativity")
	}
	m, err := newMaskedCache("L1-idc", fm)
	if err != nil {
		return nil, err
	}
	if next == nil {
		return nil, errNilNext
	}
	name := "IDC"
	if entries >= 1024 {
		name = "IDC+"
	}
	return &IDC{name: name, m: m, next: next, setMask: uint64(sets - 1), tags: make([]idcEntry, entries)}, nil
}

// Name implements core.DataCache/core.InstrCache.
func (c *IDC) Name() string { return c.name }

// HitLatency implements core.DataCache/core.InstrCache.
func (c *IDC) HitLatency() int { return c.m.cfg.HitLatency + 1 }

// Stats returns the scheme's counters.
func (c *IDC) Stats() FBAStats { return c.stats }

// auxSet returns the auxiliary set a word maps to: its address modulo
// the set count.
func (c *IDC) auxSet(wordAddr uint64) []idcEntry {
	i := int(wordAddr&c.setMask) * IDCAssoc
	return c.tags[i : i+IDCAssoc : i+IDCAssoc]
}

func (c *IDC) auxHit(wordAddr uint64) bool {
	c.tick++
	set := c.auxSet(wordAddr)
	for i := range set {
		if set[i].valid && set[i].wordAddr == wordAddr {
			set[i].lru = c.tick
			return true
		}
	}
	return false
}

func (c *IDC) auxFill(wordAddr uint64) {
	c.tick++
	set := c.auxSet(wordAddr)
	best, bestLRU := 0, ^uint64(0)
	for i := range set {
		if !set[i].valid {
			best = i
			break
		}
		if set[i].lru < bestLRU {
			best, bestLRU = i, set[i].lru
		}
	}
	if set[best].valid {
		c.stats.Evictions++
	}
	set[best] = idcEntry{wordAddr: wordAddr, valid: true, lru: c.tick}
	c.stats.BufferFills++
}

// Read implements core.DataCache.
func (c *IDC) Read(addr uint64) core.AccessOutcome {
	c.stats.Accesses++
	r := c.m.access(addr, true)
	if r.wordOK {
		if r.tagHit {
			c.stats.MainHits++
			return core.HitOutcome(c.HitLatency())
		}
		c.stats.TagMisses++
		return core.MissOutcome(c.HitLatency(), c.next, addr)
	}
	c.stats.DefectAccesses++
	if !r.tagHit {
		c.stats.TagMisses++
	}
	if c.auxHit(cache.WordAddr(addr)) {
		c.stats.BufferHits++
		return core.HitOutcome(c.HitLatency())
	}
	out := core.MissOutcome(c.HitLatency(), c.next, addr)
	c.auxFill(cache.WordAddr(addr))
	return out
}

// Write implements core.DataCache.
func (c *IDC) Write(addr uint64) core.AccessOutcome {
	c.next.WriteWord(addr)
	r := c.m.access(addr, false)
	if r.tagHit && r.wordOK {
		return core.HitOutcome(c.HitLatency())
	}
	if r.tagHit && c.auxHit(cache.WordAddr(addr)) {
		return core.HitOutcome(c.HitLatency())
	}
	return core.AccessOutcome{Latency: c.HitLatency()}
}

// Fetch implements core.InstrCache.
func (c *IDC) Fetch(addr uint64) core.AccessOutcome { return c.Read(addr) }
