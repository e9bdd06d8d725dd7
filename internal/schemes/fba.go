package schemes

import (
	"errors"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/faultmap"
)

// FBA is the Fault Buffer Array [2]: the main L1 runs word-disable, and a
// small fully-associative, word-location-tagged buffer holds the values
// of defective words currently in use. An access whose word entry is
// defective is redirected to the FBA; an FBA miss is handled like a
// normal cache miss (an L2 trip) and allocates the word into the buffer.
// The content-addressable lookup costs one extra cycle on the L1 path
// (Table III). The paper evaluates 64 entries as realistic and grants
// 1024 entries to the optimistic FBA⁺.
type FBA struct {
	name string
	m    *maskedCache
	next *core.NextLevel

	buf wordBuffer

	stats FBAStats
}

// FBAStats counts buffer events.
type FBAStats struct {
	Accesses       uint64
	MainHits       uint64
	TagMisses      uint64
	DefectAccesses uint64 // accesses redirected to the buffer
	BufferHits     uint64
	BufferFills    uint64
	Evictions      uint64
}

// NewFBA builds the scheme with the given buffer capacity (64 for the
// paper's realistic configuration, 1024 for FBA⁺).
func NewFBA(fm *faultmap.Map, next *core.NextLevel, entries int) (*FBA, error) {
	if entries < 1 {
		return nil, errors.New("schemes: FBA needs >= 1 entry")
	}
	m, err := newMaskedCache("L1-fba", fm)
	if err != nil {
		return nil, err
	}
	if next == nil {
		return nil, errNilNext
	}
	name := "FBA"
	if entries >= 1024 {
		name = "FBA+"
	}
	return &FBA{name: name, m: m, next: next, buf: newWordBuffer(entries)}, nil
}

// Name implements core.DataCache/core.InstrCache.
func (f *FBA) Name() string { return f.name }

// HitLatency implements core.DataCache/core.InstrCache: +1 cycle for the
// CAM lookup.
func (f *FBA) HitLatency() int { return f.m.cfg.HitLatency + 1 }

// Stats returns the scheme's counters.
func (f *FBA) Stats() FBAStats { return f.stats }

// Entries returns the current buffer occupancy.
func (f *FBA) Entries() int { return f.buf.n }

// bufferHit probes the buffer, refreshing LRU order on a hit.
func (f *FBA) bufferHit(wordAddr uint64) bool {
	_, s := f.buf.find(wordAddr)
	if s < 0 {
		return false
	}
	f.buf.toFront(s)
	return true
}

// bufferFill installs a word, evicting the LRU entry at capacity.
func (f *FBA) bufferFill(wordAddr uint64) {
	if _, s := f.buf.find(wordAddr); s >= 0 {
		return
	}
	if f.buf.insert(wordAddr) {
		f.stats.Evictions++
	}
	f.stats.BufferFills++
}

// wordBuffer is the FBA's fully-associative word store: a fixed array
// of slots chained in LRU order by index links, found through an
// open-addressed (linear-probing) hash index of at most half load.
// Nothing on the access path allocates.
type wordBuffer struct {
	slots      []bufSlot
	n          int     // slots in use; they are slots[:n]
	head, tail int32   // MRU and LRU slot, -1 when empty
	index      []int32 // slot+1 of the word hashing here, 0 = empty
	shift      uint    // 64 - log2(len(index))
}

type bufSlot struct {
	word       uint64
	prev, next int32 // neighbours toward MRU and toward LRU; -1 at the ends
}

func newWordBuffer(capacity int) wordBuffer {
	logSize := bits.Len(uint(2*capacity - 1)) // len(index) >= 2*capacity
	return wordBuffer{
		slots: make([]bufSlot, capacity),
		head:  -1, tail: -1,
		index: make([]int32, 1<<logSize),
		shift: uint(64 - logSize),
	}
}

// home is word's preferred index position (Fibonacci hashing).
func (b *wordBuffer) home(word uint64) int {
	return int((word * 0x9E3779B97F4A7C15) >> b.shift)
}

// find returns word's index position and slot, or the empty position
// where it would go and slot -1.
func (b *wordBuffer) find(word uint64) (pos int, slot int32) {
	mask := len(b.index) - 1
	for pos = b.home(word); ; pos = (pos + 1) & mask {
		e := b.index[pos]
		if e == 0 {
			return pos, -1
		}
		if b.slots[e-1].word == word {
			return pos, e - 1
		}
	}
}

// insert adds a word that is not present as the MRU entry, first
// evicting the LRU entry when every slot is in use; it reports whether
// it evicted.
func (b *wordBuffer) insert(word uint64) (evicted bool) {
	var s int32
	if b.n < len(b.slots) {
		s = int32(b.n)
		b.n++
	} else {
		s = b.tail
		pos, _ := b.find(b.slots[s].word)
		b.unindex(pos)
		b.unlink(s)
		evicted = true
	}
	pos, _ := b.find(word)
	b.index[pos] = s + 1
	b.slots[s].word = word
	b.pushFront(s)
	return evicted
}

// unindex empties index position pos, shifting later entries of its
// probe run back so every remaining word stays reachable from its home.
func (b *wordBuffer) unindex(pos int) {
	mask := len(b.index) - 1
	for next := (pos + 1) & mask; b.index[next] != 0; next = (next + 1) & mask {
		// The entry at next may fill the hole at pos only if its home
		// does not lie cyclically in (pos, next].
		h := b.home(b.slots[b.index[next]-1].word)
		if (next-h)&mask >= (next-pos)&mask {
			b.index[pos] = b.index[next]
			pos = next
		}
	}
	b.index[pos] = 0
}

func (b *wordBuffer) unlink(s int32) {
	sl := &b.slots[s]
	if sl.prev >= 0 {
		b.slots[sl.prev].next = sl.next
	} else {
		b.head = sl.next
	}
	if sl.next >= 0 {
		b.slots[sl.next].prev = sl.prev
	} else {
		b.tail = sl.prev
	}
}

func (b *wordBuffer) pushFront(s int32) {
	b.slots[s].prev, b.slots[s].next = -1, b.head
	if b.head >= 0 {
		b.slots[b.head].prev = s
	} else {
		b.tail = s
	}
	b.head = s
}

// toFront makes slot s the MRU entry.
func (b *wordBuffer) toFront(s int32) {
	if b.head != s {
		b.unlink(s)
		b.pushFront(s)
	}
}

// Read implements core.DataCache.
func (f *FBA) Read(addr uint64) core.AccessOutcome {
	f.stats.Accesses++
	r := f.m.access(addr, true)
	if r.wordOK {
		if r.tagHit {
			f.stats.MainHits++
			return core.HitOutcome(f.HitLatency())
		}
		f.stats.TagMisses++
		return core.MissOutcome(f.HitLatency(), f.next, addr)
	}
	// Defective word entry: redirect to the buffer.
	f.stats.DefectAccesses++
	if !r.tagHit {
		f.stats.TagMisses++
	}
	if f.bufferHit(cache.WordAddr(addr)) {
		f.stats.BufferHits++
		return core.HitOutcome(f.HitLatency())
	}
	// Buffer miss: L2 trip, then install the word.
	out := core.MissOutcome(f.HitLatency(), f.next, addr)
	f.bufferFill(cache.WordAddr(addr))
	return out
}

// Write implements core.DataCache: write-through; a buffered defective
// word is updated in place (it stays resident), but no allocation happens
// on a write.
func (f *FBA) Write(addr uint64) core.AccessOutcome {
	f.next.WriteWord(addr)
	r := f.m.access(addr, false)
	if r.tagHit && r.wordOK {
		return core.HitOutcome(f.HitLatency())
	}
	if r.tagHit && f.bufferHit(cache.WordAddr(addr)) {
		return core.HitOutcome(f.HitLatency())
	}
	return core.AccessOutcome{Latency: f.HitLatency()}
}

// Fetch implements core.InstrCache.
func (f *FBA) Fetch(addr uint64) core.AccessOutcome { return f.Read(addr) }
