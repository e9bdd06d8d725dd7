// Package cache implements the generic set-associative cache simulator
// that underlies every scheme in the paper: address/geometry arithmetic,
// true-LRU replacement, write-through and write-back policies, and the
// dynamic set-associative ↔ direct-mapped mode switch (DAC-style [27])
// that BBR's instruction cache uses in low-voltage mode.
//
// The simulator tracks tags and replacement state only; data payloads are
// modelled where a scheme needs them (package ffw stores real bytes to
// verify word remapping end-to-end). All caches are physically indexed
// and word-addressed per the paper: 4 B words, 32 B blocks.
package cache

import (
	"fmt"
	"math/bits"
)

// Word and block geometry fixed by the paper (Table I).
const (
	WordBytes      = 4
	BlockBytes     = 32
	WordsPerBlock  = BlockBytes / WordBytes
	wordShift      = 2
	blockShift     = 5
	wordInBlockMsk = WordsPerBlock - 1
)

// WritePolicy selects the behaviour of stores.
type WritePolicy int

const (
	// WriteThrough propagates every store to the next level (the paper's
	// L1 data cache; a coalescing write buffer is assumed, so this
	// traffic is constant across schemes).
	WriteThrough WritePolicy = iota
	// WriteBack marks lines dirty and writes them out on eviction (the
	// paper's unified L2).
	WriteBack
)

// String implements fmt.Stringer.
func (p WritePolicy) String() string {
	switch p {
	case WriteThrough:
		return "write-through"
	case WriteBack:
		return "write-back"
	default:
		return fmt.Sprintf("WritePolicy(%d)", int(p))
	}
}

// Mode selects how lookups map addresses to frames.
type Mode int

const (
	// SetAssociative is the normal high-voltage mode.
	SetAssociative Mode = iota
	// DirectMapped implements direct-mapped accesses on top of the
	// set-associative arrays: the least-significant tag bits explicitly
	// select the way within the indexed set, giving software direct
	// control over cache placement (required by BBR).
	DirectMapped
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case SetAssociative:
		return "set-associative"
	case DirectMapped:
		return "direct-mapped"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Replacement selects the victim policy.
type Replacement int

const (
	// ReplaceLRU is true least-recently-used (the paper's Table I policy
	// and the default).
	ReplaceLRU Replacement = iota
	// ReplacePLRU is tree pseudo-LRU: one bit per internal node of a
	// binary tree over the ways — what 45 nm hardware actually builds,
	// since true LRU state grows as ways·log(ways). Requires a
	// power-of-two way count.
	ReplacePLRU
	// ReplaceFIFO evicts in fill order, ignoring reuse.
	ReplaceFIFO
)

// String implements fmt.Stringer.
func (r Replacement) String() string {
	switch r {
	case ReplaceLRU:
		return "lru"
	case ReplacePLRU:
		return "plru"
	case ReplaceFIFO:
		return "fifo"
	default:
		return fmt.Sprintf("Replacement(%d)", int(r))
	}
}

// Config describes a cache organization.
type Config struct {
	Name        string
	SizeBytes   int
	Ways        int
	HitLatency  int // cycles for a hit, before any scheme overhead
	WritePolicy WritePolicy
	Replacement Replacement
}

// L1Config is the paper's 32 KB, 4-way, 32 B-block, 2-cycle L1
// organization (Table I); the data cache is write-through, the
// instruction cache read-only (write policy unused).
func L1Config(name string) Config {
	return Config{Name: name, SizeBytes: 32 * 1024, Ways: 4, HitLatency: 2, WritePolicy: WriteThrough}
}

// L2Config is the paper's 512 KB, 8-way, 32 B-block, 10-cycle write-back
// unified L2 (Table I).
func L2Config() Config {
	return Config{Name: "L2", SizeBytes: 512 * 1024, Ways: 8, HitLatency: 10, WritePolicy: WriteBack}
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.SizeBytes%BlockBytes != 0:
		return fmt.Errorf("cache %q: size %d is not a positive multiple of %d", c.Name, c.SizeBytes, BlockBytes)
	case c.Ways <= 0:
		return fmt.Errorf("cache %q: ways %d must be positive", c.Name, c.Ways)
	case c.Blocks()%c.Ways != 0:
		return fmt.Errorf("cache %q: %d blocks not divisible by %d ways", c.Name, c.Blocks(), c.Ways)
	case bits.OnesCount(uint(c.Sets())) != 1:
		return fmt.Errorf("cache %q: %d sets is not a power of two", c.Name, c.Sets())
	case c.HitLatency < 0:
		return fmt.Errorf("cache %q: negative hit latency", c.Name)
	case c.Replacement == ReplacePLRU && bits.OnesCount(uint(c.Ways)) != 1:
		return fmt.Errorf("cache %q: pseudo-LRU needs a power-of-two way count, got %d", c.Name, c.Ways)
	case c.Replacement < ReplaceLRU || c.Replacement > ReplaceFIFO:
		return fmt.Errorf("cache %q: unknown replacement policy %d", c.Name, c.Replacement)
	}
	return nil
}

// Blocks returns the total number of block frames.
func (c Config) Blocks() int { return c.SizeBytes / BlockBytes }

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Blocks() / c.Ways }

// Words returns the total number of data words, the size of the cache's
// fault map.
func (c Config) Words() int { return c.SizeBytes / WordBytes }

// BlockAddr returns the block number of a byte address.
func BlockAddr(addr uint64) uint64 { return addr >> blockShift }

// WordInBlock returns the word offset (0..7) of a byte address within its
// block.
func WordInBlock(addr uint64) int { return int(addr>>wordShift) & wordInBlockMsk }

// WordAddr returns the global word number of a byte address.
func WordAddr(addr uint64) uint64 { return addr >> wordShift }

// Index returns the set index of addr.
func (c Config) Index(addr uint64) int { return c.Geometry().Index(addr) }

// Tag returns the tag of addr.
func (c Config) Tag(addr uint64) uint64 { return c.Geometry().Tag(addr) }

// DMWay returns the way that the least-significant tag bits select in
// direct-mapped mode.
func (c Config) DMWay(addr uint64) int { return c.Geometry().DMWay(addr) }

// DMSlot returns the unique direct-mapped frame number (0..Blocks()-1)
// that addr maps to in direct-mapped mode. Software (the BBR linker)
// controls placement through this mapping: slot = block address mod
// number of frames.
func (c Config) DMSlot(addr uint64) int { return c.Geometry().DMSlot(addr) }

// FrameWordIndex returns the index into the cache's physical word array
// (and fault map) of word `word` of the frame at (set, way). Frames are
// laid out set-major: frame = set*Ways + way.
func (c Config) FrameWordIndex(set, way, word int) int {
	return c.Geometry().FrameWordIndex(set, way, word)
}

// DMImageWordIndex maps a position in the direct-mapped linear image of
// the cache (word i of the image, i in [0, Words())) to the physical word
// index in FrameWordIndex coordinates. In direct-mapped mode a block
// address B occupies image slot B mod Blocks(), whose physical frame is
// (set = slot mod Sets(), way = slot / Sets()); the BBR linker scans the
// image linearly, so it needs this permutation to consult the physical
// fault map.
func (c Config) DMImageWordIndex(i int) int { return c.Geometry().DMImageWordIndex(i) }

// Geometry is a cache organization's address arithmetic reduced to
// shifts and masks, computed once per cache instead of dividing by the
// set and way counts on every access (the per-instruction path indexes
// two L1s and often the L2). Validate guarantees a power-of-two set
// count; a way count that is not a power of two (e.g. 12 ways) keeps a
// modulo in the direct-mapped helpers. The Config methods of the same
// names delegate here, so the arithmetic lives in one place.
type Geometry struct {
	ways      int
	setShift  uint   // log2(Sets())
	setMask   uint64 // Sets()-1
	wayMask   uint64 // Ways-1 when Ways is a power of two
	frameMask uint64 // Blocks()-1 when Ways is a power of two
	blocks    uint64
	wordMask  uint64 // Words()-1 when Ways is a power of two
	words     uint64
	waysPow2  bool
}

// Geometry precomputes the configuration's address arithmetic. It does
// not validate: results for a Config that fails Validate are
// unspecified (every cache constructor validates first).
func (c Config) Geometry() Geometry {
	sets := uint64(c.Sets())
	g := Geometry{
		ways:     c.Ways,
		setShift: uint(bits.TrailingZeros64(sets)),
		setMask:  sets - 1,
		blocks:   uint64(c.Blocks()),
		words:    uint64(c.Words()),
		waysPow2: c.Ways > 0 && bits.OnesCount(uint(c.Ways)) == 1,
	}
	if g.waysPow2 {
		g.wayMask = uint64(c.Ways) - 1
		g.frameMask = g.blocks - 1
		g.wordMask = g.words - 1
	}
	return g
}

// Index returns the set index of addr.
func (g Geometry) Index(addr uint64) int { return int(BlockAddr(addr) & g.setMask) }

// Tag returns the tag of addr.
func (g Geometry) Tag(addr uint64) uint64 { return BlockAddr(addr) >> g.setShift }

// DMWay returns the way that the least-significant tag bits select in
// direct-mapped mode.
func (g Geometry) DMWay(addr uint64) int {
	if g.waysPow2 {
		return int(g.Tag(addr) & g.wayMask)
	}
	return int(g.Tag(addr) % uint64(g.ways))
}

// DMSlot returns the direct-mapped frame number of addr: block address
// mod Blocks().
func (g Geometry) DMSlot(addr uint64) int {
	if g.waysPow2 {
		return int(BlockAddr(addr) & g.frameMask)
	}
	return int(BlockAddr(addr) % g.blocks)
}

// ImageWord returns the position of addr's word in the direct-mapped
// linear image: word address mod Words().
func (g Geometry) ImageWord(addr uint64) int {
	if g.waysPow2 {
		return int(WordAddr(addr) & g.wordMask)
	}
	return int(WordAddr(addr) % g.words)
}

// FrameWordIndex is Config.FrameWordIndex.
func (g Geometry) FrameWordIndex(set, way, word int) int {
	return (set*g.ways+way)*WordsPerBlock + word
}

// DMImageWordIndex is Config.DMImageWordIndex; i must lie in
// [0, Words()).
func (g Geometry) DMImageWordIndex(i int) int {
	slot := uint64(i) >> (blockShift - wordShift)
	word := i & wordInBlockMsk
	return g.FrameWordIndex(int(slot&g.setMask), int(slot>>g.setShift), word)
}

// Stats counts cache events.
type Stats struct {
	Reads       uint64
	Writes      uint64
	ReadHits    uint64
	WriteHits   uint64
	Fills       uint64 // blocks brought in from the next level
	Evictions   uint64 // valid blocks displaced
	WriteBacks  uint64 // dirty blocks written to the next level
	Invalidates uint64 // lines discarded by Flush/Invalidate
	Disables    uint64 // frames taken out of service by DisableFrame
}

// Misses returns total read+write misses.
func (s Stats) Misses() uint64 { return s.Reads + s.Writes - s.ReadHits - s.WriteHits }

// ReadMisses returns demand read misses.
func (s Stats) ReadMisses() uint64 { return s.Reads - s.ReadHits }

// Accesses returns total accesses.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// HitRate returns the fraction of accesses that hit (0 when idle).
func (s Stats) HitRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.ReadHits+s.WriteHits) / float64(a)
}

type line struct {
	tag      uint64
	valid    bool
	dirty    bool
	disabled bool   // frame out of service; never holds data again
	lru      uint64 // larger = more recently used
}

// Cache is a tag-array simulator for one cache level.
type Cache struct {
	cfg   Config
	geo   Geometry
	mode  Mode
	lines []line   // set-major: frame (set, way) is lines[set*Ways+way]
	plru  []uint32 // per-set tree bits (ReplacePLRU)
	fifo  []uint32 // per-set next-victim pointer (ReplaceFIFO)
	stats Stats
	tick  uint64
}

// New constructs a cache; the configuration must validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg, geo: cfg.Geometry(), lines: make([]line, cfg.Blocks())}
	switch cfg.Replacement {
	case ReplacePLRU:
		c.plru = make([]uint32, cfg.Sets())
	case ReplaceFIFO:
		c.fifo = make([]uint32, cfg.Sets())
	case ReplaceLRU:
		// True LRU keeps per-line ages in the line array itself.
	}
	return c, nil
}

// Reset returns the cache to exactly the state New(c.Config()) builds —
// every line invalid and in service, set-associative mode, replacement
// state, tick and statistics zeroed — reusing its arrays, so one tag
// array can serve many independent simulations without reallocating.
func (c *Cache) Reset() {
	clear(c.lines)
	clear(c.plru)
	clear(c.fifo)
	c.mode = SetAssociative
	c.stats = Stats{}
	c.tick = 0
}

// MustNew is New for statically known-good configurations; it panics on
// error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Mode returns the current lookup mode.
func (c *Cache) Mode() Mode { return c.mode }

// SetMode switches between set-associative and direct-mapped lookup.
// Following the paper, the switch happens on a DVFS transition with all
// contents invalidated ("when the processor switches to low voltage mode,
// all cache contents are invalidated and the cache is configured as
// direct-mapped"), so residency never carries across modes.
func (c *Cache) SetMode(m Mode) {
	if m != c.mode {
		c.Flush()
		c.mode = m
	}
}

// Stats returns a snapshot of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters without touching contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Flush invalidates every line (counting each valid line) and discards
// dirty data. The paper flushes BBR caches on every downward voltage
// transition; write-back callers needing the dirty lines should drain via
// Stats before flushing — the simulator does not model flush-writeback
// traffic because mode switches are rare enough to be ignorable (§IV-B).
func (c *Cache) Flush() {
	for i := range c.lines {
		if c.lines[i].valid {
			c.stats.Invalidates++
		}
		// Disabled frames model hardware degradation and stay out of
		// service across flushes.
		c.lines[i] = line{disabled: c.lines[i].disabled}
	}
}

// DisableFrame takes the frame at (set, way) permanently out of service:
// the resident block, if any, is invalidated and the frame is never
// filled again (capacity degradation from an unrecoverable fault).
// Out-of-range coordinates and already-disabled frames are no-ops.
func (c *Cache) DisableFrame(set, way int) {
	if set < 0 || set >= c.cfg.Sets() || way < 0 || way >= c.cfg.Ways {
		return
	}
	l := &c.set(set)[way]
	if l.disabled {
		return
	}
	if l.valid {
		c.stats.Invalidates++
	}
	*l = line{disabled: true}
	c.stats.Disables++
}

// FrameDisabled reports whether the frame at (set, way) is out of
// service.
func (c *Cache) FrameDisabled(set, way int) bool {
	if set < 0 || set >= c.cfg.Sets() || way < 0 || way >= c.cfg.Ways {
		return false
	}
	return c.set(set)[way].disabled
}

// DisabledFrames returns the number of frames currently out of service.
func (c *Cache) DisabledFrames() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].disabled {
			n++
		}
	}
	return n
}

// set returns the frames of set s, a window onto the flat line array.
func (c *Cache) set(s int) []line {
	i := s * c.cfg.Ways
	return c.lines[i : i+c.cfg.Ways : i+c.cfg.Ways]
}

// lookup returns the set and hit way (or -1).
func (c *Cache) lookup(addr uint64) (set int, way int) {
	set, tag := c.geo.Index(addr), c.geo.Tag(addr)
	ls := c.set(set)
	if c.mode == DirectMapped {
		w := c.geo.DMWay(addr)
		if l := &ls[w]; l.valid && l.tag == tag {
			return set, w
		}
		return set, -1
	}
	for w := range ls {
		if l := &ls[w]; l.valid && l.tag == tag {
			return set, w
		}
	}
	return set, -1
}

// Probe reports whether addr is resident without disturbing replacement
// state or statistics.
func (c *Cache) Probe(addr uint64) bool {
	_, way := c.lookup(addr)
	return way >= 0
}

// victim selects the fill way for a miss on the given set, or -1 when
// no frame is in service (direct-mapped target disabled, or an entire
// set out of service): the access is then served from below without a
// fill.
func (c *Cache) victim(addr uint64, set int) int {
	ls := c.set(set)
	if c.mode == DirectMapped {
		if w := c.geo.DMWay(addr); !ls[w].disabled {
			return w
		}
		return -1
	}
	for w := range ls {
		if l := &ls[w]; !l.disabled && !l.valid {
			return w
		}
	}
	var v int
	switch c.cfg.Replacement {
	case ReplacePLRU:
		v = c.plruVictim(set)
	case ReplaceFIFO:
		v = int(c.fifo[set]) % c.cfg.Ways
		c.fifo[set]++
	default:
		best, bestLRU := -1, ^uint64(0)
		for w := range ls {
			if l := &ls[w]; !l.disabled && l.lru < bestLRU {
				best, bestLRU = w, l.lru
			}
		}
		return best
	}
	// PLRU/FIFO state is oblivious to disabled frames; deterministically
	// redirect to the next in-service way.
	for i := 0; i < c.cfg.Ways; i++ {
		if w := (v + i) % c.cfg.Ways; !ls[w].disabled {
			return w
		}
	}
	return -1
}

// plruVictim walks the tree toward the pseudo-least-recent way: at each
// internal node, bit 0 means "left half is older".
func (c *Cache) plruVictim(set int) int {
	node, lo, span := 0, 0, c.cfg.Ways
	bits := c.plru[set]
	for span > 1 {
		span /= 2
		if bits&(1<<uint(node)) == 0 {
			node = 2*node + 1 // descend left
		} else {
			lo += span
			node = 2*node + 2 // descend right
		}
	}
	return lo
}

// plruTouch flips the tree bits along way's path to point away from it.
func (c *Cache) plruTouch(set, way int) {
	node, lo, span := 0, 0, c.cfg.Ways
	bits := c.plru[set]
	for span > 1 {
		span /= 2
		if way < lo+span {
			bits |= 1 << uint(node) // way is in the left half: mark right older... point away
			node = 2*node + 1
		} else {
			bits &^= 1 << uint(node)
			lo += span
			node = 2*node + 2
		}
	}
	c.plru[set] = bits
}

// Result describes what one access did.
type Result struct {
	Hit       bool
	Filled    bool // a block was brought in
	Evicted   bool // a valid block was displaced
	WroteBack bool // the displaced block was dirty (write-back only)
}

// Access performs a read (write=false) or write (write=true) of addr,
// allocating on miss. It returns what happened; the caller charges
// next-level latency and traffic based on Result.Filled/WroteBack.
//
// Write-through caches do not allocate on write misses
// (no-write-allocate) and never hold dirty data, matching the paper's L1
// data cache; write-back caches allocate on both kinds of miss.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.tick++
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	set, way := c.lookup(addr)
	if way >= 0 {
		l := &c.set(set)[way]
		l.lru = c.tick
		if c.plru != nil {
			c.plruTouch(set, way)
		}
		if write {
			c.stats.WriteHits++
			if c.cfg.WritePolicy == WriteBack {
				l.dirty = true
			}
		} else {
			c.stats.ReadHits++
		}
		return Result{Hit: true}
	}
	// Miss.
	if write && c.cfg.WritePolicy == WriteThrough {
		// No-write-allocate: the store goes straight to the next level.
		return Result{}
	}
	w := c.victim(addr, set)
	if w < 0 {
		// Every candidate frame is disabled: serve from below, no fill.
		return Result{}
	}
	res := Result{Filled: true}
	l := &c.set(set)[w]
	if l.valid {
		res.Evicted = true
		c.stats.Evictions++
		if l.dirty {
			res.WroteBack = true
			c.stats.WriteBacks++
		}
	}
	*l = line{tag: c.geo.Tag(addr), valid: true, lru: c.tick}
	if c.plru != nil {
		c.plruTouch(set, w)
	}
	if write && c.cfg.WritePolicy == WriteBack {
		l.dirty = true
	}
	c.stats.Fills++
	return res
}

// Invalidate drops addr's block if resident, returning whether it was.
func (c *Cache) Invalidate(addr uint64) bool {
	set, way := c.lookup(addr)
	if way < 0 {
		return false
	}
	c.set(set)[way] = line{}
	c.stats.Invalidates++
	return true
}
