package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cache"
)

// lowerOp is one call a NextLevel made on its backend.
type lowerOp struct {
	read    bool // ReadBlock (true) or WriteBlock
	block   uint64
	forRead bool
}

// logLower records every backend call and answers reads with a hit
// when the block was written before.
type logLower struct {
	ops     []lowerOp
	written map[uint64]bool
}

func (l *logLower) ReadBlock(addr uint64) (int, bool) {
	b := cache.BlockAddr(addr)
	l.ops = append(l.ops, lowerOp{read: true, block: b})
	return 10, l.written[b]
}

func (l *logLower) WriteBlock(block uint64, forRead bool) {
	l.ops = append(l.ops, lowerOp{block: block, forRead: forRead})
	l.written[block] = true
}

// sliceWriteBuffer is the write buffer as a growing slice whose head is
// dropped with wb = wb[1:]: the reference for the fixed-array FIFO's
// drain, forward and coalesce order.
type sliceWriteBuffer struct {
	lower  Lower
	wb     []uint64
	drains uint64
}

func (s *sliceWriteBuffer) ReadBlock(addr uint64) {
	block := cache.BlockAddr(addr)
	for i, b := range s.wb {
		if b == block {
			s.wb = append(s.wb[:i], s.wb[i+1:]...)
			s.drains++
			s.lower.WriteBlock(block, true)
			break
		}
	}
	s.lower.ReadBlock(addr)
}

func (s *sliceWriteBuffer) WriteWord(addr uint64) {
	block := cache.BlockAddr(addr)
	for i, b := range s.wb {
		if b == block {
			s.wb = append(append(s.wb[:i], s.wb[i+1:]...), block)
			return
		}
	}
	if len(s.wb) >= WriteBufferEntries {
		oldest := s.wb[0]
		s.wb = s.wb[1:]
		s.drains++
		s.lower.WriteBlock(oldest, false)
	}
	s.wb = append(s.wb, block)
}

// TestWriteBufferMatchesSliceReference drives the fixed FIFO and the
// slice reference with the same random stores and demand reads over a
// few more blocks than the buffer holds, so coalescing, forwarding and
// capacity drains all interleave. Every backend call must come in the
// same order with the same arguments.
func TestWriteBufferMatchesSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	got := &logLower{written: map[uint64]bool{}}
	want := &logLower{written: map[uint64]bool{}}
	n := NewNextLevelOver(got)
	ref := &sliceWriteBuffer{lower: want}
	for i := 0; i < 200_000; i++ {
		addr := uint64(rng.Intn(3*WriteBufferEntries)) * cache.BlockBytes
		addr += uint64(rng.Intn(cache.WordsPerBlock)) * cache.WordBytes
		if rng.Intn(4) == 0 {
			n.ReadBlock(addr)
			ref.ReadBlock(addr)
		} else {
			n.WriteWord(addr)
			ref.WriteWord(addr)
		}
		if !slices.Equal(n.wb[:n.wbLen], ref.wb) {
			t.Fatalf("access %d: buffer %v, reference %v", i, n.wb[:n.wbLen], ref.wb)
		}
	}
	if !slices.Equal(got.ops, want.ops) {
		t.Fatalf("backend calls differ: %d vs %d calls", len(got.ops), len(want.ops))
	}
	if n.BlockDrains() != ref.drains {
		t.Errorf("BlockDrains = %d, reference %d", n.BlockDrains(), ref.drains)
	}
	if n.BlockDrains() == 0 || n.DemandReads() == 0 {
		t.Error("sequence exercised neither drains nor reads")
	}
}

// TestWriteWordDoesNotAllocate pins the fixed FIFO: the store path
// allocates nothing, also when it drains. Each run stores to many
// distinct blocks, because AllocsPerRun rounds down to whole
// allocations per run.
func TestWriteWordDoesNotAllocate(t *testing.T) {
	n := NewNextLevel(100)
	addr := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 8*WriteBufferEntries; i++ {
			n.WriteWord(addr)
			addr += cache.BlockBytes
		}
	})
	if allocs != 0 {
		t.Errorf("WriteWord allocates %.0f times per %d drains, want 0", allocs, 8*WriteBufferEntries)
	}
}
