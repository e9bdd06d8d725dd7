package ffw

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/faultmap"
	"repro/internal/inject"
)

// Options configure an FFW cache beyond its geometry.
type Options struct {
	// Placement selects the window placement policy (default: centered,
	// the paper's policy).
	Placement WindowPlacement
	// Scatter enables the non-contiguous extension: the stored pattern is
	// not constrained to a contiguous window. On a miss to an absent word
	// of a resident block, only the stored word farthest from the missed
	// word is replaced, so the stored set converges to exactly the words
	// the program uses. The paper's remap datapath (Figure 4) already
	// supports arbitrary patterns — rank-to-rank mapping doesn't care
	// about contiguity — but the paper evaluates contiguous windows only;
	// this is the obvious future-work variant, exposed for the ablation
	// benchmarks.
	Scatter bool
	// TrackData, when true, stores real word values in the physical data
	// array and services reads through the remap datapath, so tests can
	// verify the Figure 4 logic end-to-end. Timing simulations leave it
	// off.
	TrackData bool
	// Backing supplies the memory image when TrackData is set: the value
	// of every word address. Defaults to a deterministic hash of the
	// address.
	Backing func(wordAddr uint64) uint32
	// Injector, when non-nil, attaches the runtime fault-injection layer:
	// the cache advances the injector once per access and runs a
	// parity-style check on every window hit (see Read for the
	// detection/recovery ladder). Nil reproduces the static-fault-map
	// behaviour bit for bit.
	Injector *inject.Injector
}

type line struct {
	tag    uint64
	lru    uint64
	valid  bool
	stored uint8 // StoredPattern: bit w set = logical word w in the window
	fault  uint8 // FMAP entry: bit e set = physical word entry e defective
	// wordAge holds per-word last-use ticks, used only by the scatter
	// extension's LRU word replacement.
	wordAge [WordsPerBlock]uint64
}

// Cache is an L1 data cache protected by fault-free windows. It
// implements core.DataCache.
type Cache struct {
	cfg  cache.Config
	geo  cache.Geometry
	next *core.NextLevel
	opts Options
	fm   *faultmap.Map    // manufacturing fault map (read-only)
	inj  *inject.Injector // runtime fault layer (nil = static faults only)

	lines   []line            // set-major: frame (set, way) is lines[set*Ways+way]
	data    []uint32          // physical data array (only populated when TrackData)
	written map[uint64]uint32 // write-through image of stored words (TrackData)
	tick    uint64

	stats  Stats
	fstats inject.Stats // detection/recovery counters (injector attached)
}

// Stats counts FFW-specific events beyond the generic cache statistics.
type Stats struct {
	Reads      uint64
	Writes     uint64
	ReadHits   uint64
	WriteHits  uint64 // stores that found their word in a window
	WindowMiss uint64 // tag hit but requested word outside the window
	TagMiss    uint64 // no matching tag in the set
	Refills    uint64 // windows (re)filled from the next level
	Disabled   uint64 // accesses that found every candidate frame unusable (k = 0)
}

// New builds an FFW cache with the paper's L1 geometry over the given
// fault map (one bit per physical data-array word) and next level.
func New(fm *faultmap.Map, next *core.NextLevel, opts Options) (*Cache, error) {
	cfg := cache.L1Config("L1D-FFW")
	if fm.Words() != cfg.Words() {
		return nil, fmt.Errorf("ffw: fault map covers %d words, cache has %d", fm.Words(), cfg.Words())
	}
	if next == nil {
		return nil, fmt.Errorf("ffw: nil next level")
	}
	c := &Cache{cfg: cfg, geo: cfg.Geometry(), next: next, opts: opts, fm: fm, inj: opts.Injector,
		lines: make([]line, cfg.Blocks())}
	// Load the FMAP array: per-frame fault pattern from the fault map.
	for frame := range c.lines {
		c.lines[frame].fault = fm.BlockMask(frame)
	}
	if opts.TrackData {
		c.data = make([]uint32, cfg.Words())
		c.written = make(map[uint64]uint32)
		if c.opts.Backing == nil {
			c.opts.Backing = DefaultBacking
		}
	}
	return c, nil
}

// backingValue returns the architected value of a word: the write-through
// image if the word has been stored to, else the initial backing image.
func (c *Cache) backingValue(wordAddr uint64) uint32 {
	if v, ok := c.written[wordAddr]; ok {
		return v
	}
	return c.opts.Backing(wordAddr)
}

// DefaultBacking is the default memory image when data tracking is on: a
// cheap deterministic mix of the word address.
func DefaultBacking(wordAddr uint64) uint32 {
	x := wordAddr*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	return uint32(x>>32) ^ uint32(x)
}

// Name implements core.DataCache.
func (c *Cache) Name() string { return "FFW" }

// HitLatency implements core.DataCache: FFW adds zero cycles to the hit
// path (Figure 9 — the pattern lookup is shorter than the data array's
// row-to-column-MUX path).
func (c *Cache) HitLatency() int { return c.cfg.HitLatency }

// Stats returns the FFW event counters.
func (c *Cache) Stats() Stats { return c.stats }

// FaultStats returns the runtime-injection counters: the injector's
// event counts merged with the cache's detection/recovery counters.
// Zero when no injector is attached.
func (c *Cache) FaultStats() inject.Stats {
	s := c.fstats
	if c.inj != nil {
		s.Add(c.inj.InjectedStats())
	}
	return s
}

// StoredPattern returns the stored pattern of frame (set, way), for
// inspection in tests and reports.
func (c *Cache) StoredPattern(set, way int) uint8 { return c.frame(set, way).stored }

// FaultPattern returns the FMAP entry of frame (set, way).
func (c *Cache) FaultPattern(set, way int) uint8 { return c.frame(set, way).fault }

// set returns the frames of set s, a window onto the flat line array.
func (c *Cache) set(s int) []line {
	i := s * c.cfg.Ways
	return c.lines[i : i+c.cfg.Ways : i+c.cfg.Ways]
}

// frame returns the line of frame (set, way).
func (c *Cache) frame(set, way int) *line { return &c.set(set)[way] }

// lookup returns the hitting way or -1.
func (c *Cache) lookup(addr uint64) (set, way int) {
	set, tag := c.geo.Index(addr), c.geo.Tag(addr)
	ls := c.set(set)
	for w := range ls {
		if l := &ls[w]; l.valid && l.tag == tag {
			return set, w
		}
	}
	return set, -1
}

// victim picks the refill way: an invalid frame, else LRU among frames
// with at least one fault-free entry. Frames with k = 0 are effectively
// disabled ways; if every way is disabled the access is served without
// allocation.
func (c *Cache) victim(set int) int {
	best, bestLRU := -1, ^uint64(0)
	ls := c.set(set)
	for w := range ls {
		l := &ls[w]
		if FaultFreeEntries(l.fault) == 0 {
			continue
		}
		if !l.valid {
			return w
		}
		if l.lru < bestLRU {
			best, bestLRU = w, l.lru
		}
	}
	return best
}

// refill installs a window covering the requested word into frame
// (set, way), scattering the window's words into fault-free entries.
// sameBlock reports a window miss on a resident block (tag hit): the
// scatter extension then swaps a single word instead of repositioning
// the whole window.
func (c *Cache) refill(set, way int, addr uint64, sameBlock bool) {
	l := c.frame(set, way)
	k := FaultFreeEntries(l.fault)
	word := cache.WordInBlock(addr)
	if c.opts.Scatter && sameBlock && l.stored != 0 {
		l.stored = SwapLRU(l.stored, word, &l.wordAge)
		l.wordAge[word] = c.tick
		l.lru = c.tick
		c.stats.Refills++
	} else {
		l.tag = c.geo.Tag(addr)
		l.valid = true
		l.lru = c.tick
		l.stored = Window(k, word, c.opts.Placement)
		l.wordAge = [WordsPerBlock]uint64{}
		l.wordAge[word] = c.tick
		c.stats.Refills++
	}
	if c.data != nil {
		base := cache.BlockAddr(addr) * cache.WordsPerBlock
		for w := 0; w < WordsPerBlock; w++ {
			if l.stored&(1<<uint(w)) == 0 {
				continue
			}
			e := Remap(l.stored, l.fault, w)
			c.data[c.geo.FrameWordIndex(set, way, e)] = c.backingValue(base + uint64(w))
		}
	}
}

// effectiveFault returns the frame's current fault pattern: the
// manufacturing map OR'd with any injected intermittent/permanent
// faults. The manufacturing map itself is never mutated.
func (c *Cache) effectiveFault(set, way int) uint8 {
	frame := set*c.cfg.Ways + way
	m := c.fm.BlockMask(frame)
	if c.inj != nil {
		m |= c.inj.BlockMask(frame)
	}
	return m
}

// Read implements core.DataCache. A hit requires both a tag match and the
// requested word being inside the stored window; otherwise the block is
// fetched from the next level and the window recenters on the missing
// word. The missing word is forwarded to the CPU before the window
// update, so the update adds no latency (it is on the miss path).
//
// With a runtime injector attached, every window hit runs a parity-style
// check on the physical entry being read. Detection escalates:
//
//  1. transient flip — retry the access once; the retry reads clean
//     data, at the cost of one extra hit latency (still a hit).
//  2. intermittent/permanent fault — refetch the block from the next
//     level, fold the injected faults into the frame's FMAP entry, and
//     re-center the window over the remaining fault-free entries
//     (rebuilding the remap).
//  3. no fault-free entries left — the frame is disabled (capacity
//     degradation); data is still correct, served from below.
func (c *Cache) Read(addr uint64) core.AccessOutcome {
	c.tick++
	if c.inj != nil {
		c.inj.Advance(c.tick)
	}
	c.stats.Reads++
	set, way := c.lookup(addr)
	word := cache.WordInBlock(addr)
	if way >= 0 {
		l := c.frame(set, way)
		if l.stored&(1<<uint(word)) != 0 {
			if c.inj != nil {
				e := Remap(l.stored, l.fault, word)
				phys := c.geo.FrameWordIndex(set, way, e)
				if sticky := c.inj.FaultyWord(phys); sticky || c.inj.TransientNow() {
					return c.recoverHit(set, way, addr, sticky)
				}
			}
			l.lru = c.tick
			l.wordAge[word] = c.tick
			c.stats.ReadHits++
			return core.HitOutcome(c.cfg.HitLatency)
		}
		// Window miss: refill this frame, recentered.
		c.stats.WindowMiss++
		out := core.MissOutcome(c.cfg.HitLatency, c.next, addr)
		c.refill(set, way, addr, true)
		return out
	}
	// Tag miss.
	c.stats.TagMiss++
	out := core.MissOutcome(c.cfg.HitLatency, c.next, addr)
	c.allocate(set, addr)
	return out
}

// allocate picks a victim frame and refills it, re-validating each
// candidate's fault pattern against the injector first: a frame whose
// effective pattern has no fault-free entries left is disabled and the
// next victim tried. Bounded by the way count.
func (c *Cache) allocate(set int, addr uint64) {
	for range c.cfg.Ways {
		v := c.victim(set)
		if v < 0 {
			c.stats.Disabled++
			return
		}
		if c.inj != nil {
			l := c.frame(set, v)
			if m := c.effectiveFault(set, v); m != l.fault {
				l.fault = m
				if FaultFreeEntries(m) == 0 {
					l.valid = false
					c.fstats.DisabledLines++
					continue
				}
			}
		}
		c.refill(set, v, addr, false)
		return
	}
	c.stats.Disabled++
}

// recoverHit handles a detected fault on a window hit. sticky reports
// whether the physical entry is under an intermittent/permanent fault
// (as opposed to a one-access transient flip).
func (c *Cache) recoverHit(set, way int, addr uint64, sticky bool) core.AccessOutcome {
	c.fstats.Detected++
	l := c.frame(set, way)
	if !sticky {
		// Transient: the retry reads clean data — still a hit, one extra
		// access of latency.
		c.fstats.CorrectedRetry++
		c.fstats.RecoveryCycles += uint64(c.cfg.HitLatency)
		l.lru = c.tick
		l.wordAge[cache.WordInBlock(addr)] = c.tick
		c.stats.ReadHits++
		return core.HitOutcome(2 * c.cfg.HitLatency)
	}
	// Sticky fault: refetch the block from below and rebuild the window
	// over the surviving fault-free entries.
	out := core.MissOutcome(c.cfg.HitLatency, c.next, addr)
	c.fstats.RecoveryCycles += uint64(out.Latency - c.cfg.HitLatency)
	mask := c.effectiveFault(set, way)
	l.fault = mask
	if FaultFreeEntries(mask) == 0 {
		// Unrecoverable: take the frame out of service.
		l.valid = false
		l.stored = 0
		c.fstats.Uncorrected++
		c.fstats.DisabledLines++
		return out
	}
	c.fstats.CorrectedRefetch++
	c.refill(set, way, addr, false)
	return out
}

// ReadWord is Read plus the data value, available when TrackData is set.
// The value is served through the remap datapath on a hit and from the
// backing image on a miss (the forwarded fill data).
func (c *Cache) ReadWord(addr uint64) (core.AccessOutcome, uint32) {
	if c.data == nil {
		//lvlint:ignore nopanic documented API-misuse guard: calling a data-path method on a timing-only cache is a wiring bug
		panic("ffw: ReadWord requires Options.TrackData")
	}
	set, way := c.lookup(addr)
	word := cache.WordInBlock(addr)
	var fromArray *uint32
	if way >= 0 {
		l := c.frame(set, way)
		if l.stored&(1<<uint(word)) != 0 {
			e := Remap(l.stored, l.fault, word)
			fromArray = &c.data[c.geo.FrameWordIndex(set, way, e)]
		}
	}
	out := c.Read(addr)
	if fromArray != nil {
		return out, *fromArray
	}
	return out, c.backingValue(cache.WordAddr(addr))
}

// Write implements core.DataCache. The cache is write-through with no
// write allocate: the store always goes to the write buffer; if the word
// is present in a window the copy is updated in place, otherwise nothing
// is allocated ("accesses to the missing words can be treated as normal
// cache misses" applies to loads; stores simply bypass).
func (c *Cache) Write(addr uint64) core.AccessOutcome {
	c.tick++
	if c.inj != nil {
		// Writes advance the fault clock but need no detection: the cache
		// is write-through, so the architected value is always safe below
		// and a corrupted in-window copy is caught by the next read.
		c.inj.Advance(c.tick)
	}
	c.stats.Writes++
	c.next.WriteWord(addr)
	set, way := c.lookup(addr)
	word := cache.WordInBlock(addr)
	if way >= 0 {
		l := c.frame(set, way)
		if l.stored&(1<<uint(word)) != 0 {
			l.lru = c.tick
			l.wordAge[word] = c.tick
			c.stats.WriteHits++
			return core.HitOutcome(c.cfg.HitLatency)
		}
	}
	return core.AccessOutcome{Latency: c.cfg.HitLatency}
}

// WriteWord is Write with a data value, available when TrackData is set.
// The write-through image retains the value, so it survives window moves
// and evictions (the property that lets FFW discard words freely).
func (c *Cache) WriteWord(addr uint64, v uint32) core.AccessOutcome {
	if c.data == nil {
		//lvlint:ignore nopanic documented API-misuse guard: calling a data-path method on a timing-only cache is a wiring bug
		panic("ffw: WriteWord requires Options.TrackData")
	}
	c.written[cache.WordAddr(addr)] = v
	set, way := c.lookup(addr)
	word := cache.WordInBlock(addr)
	if way >= 0 {
		l := c.frame(set, way)
		if l.stored&(1<<uint(word)) != 0 {
			e := Remap(l.stored, l.fault, word)
			c.data[c.geo.FrameWordIndex(set, way, e)] = v
		}
	}
	return c.Write(addr)
}
