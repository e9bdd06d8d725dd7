package workload

import (
	"math/rand"

	"repro/internal/program"
)

// Instr is one dynamic instruction as consumed by the timing model.
type Instr struct {
	// PC is the instruction's byte address under the active layout.
	PC uint64
	// Kind classifies the instruction.
	Kind program.InstrKind
	// MemAddr is the data address for loads and stores.
	MemAddr uint64
	// Taken reports whether a branch redirected the fetch stream (always
	// true for unconditional jumps, sampled for conditional branches).
	Taken bool
	// Mispredicted reports whether the front-end predicted this branch
	// wrong (sampled at the profile's mispredict rate).
	Mispredicted bool
	// DependsOnLoad reports whether this instruction consumes the
	// immediately preceding load's result (exposes L1 load-to-use
	// latency).
	DependsOnLoad bool
	// Overhead marks a BBR-inserted jump: it executes and costs cycles
	// but performs no useful program work, so work-based counters skip
	// it.
	Overhead bool
}

// Stream produces the merged dynamic instruction stream of a benchmark:
// control flow from the program walker, instruction addresses from the
// layout, and data addresses from the data generator. Streams are
// infinite and deterministic for a given seed.
type Stream struct {
	prof   Profile
	prog   *program.Program
	layout program.Layout
	walker *program.Walker
	data   *DataGen
	rng    *rand.Rand

	// Current block being drained, with its layout address cached so
	// the per-instruction path does not call through the Layout
	// interface.
	b        *program.BasicBlock
	base     uint64
	blkTaken bool
	pos      int // next instruction word within the block
	n        int // executed words of the current block

	prevWasLoad bool
	// Instructions counts how many instructions have been produced.
	Instructions uint64
}

// NewStream builds the instruction stream for prof over the given
// (already laid out) program. Different sub-seeds decorrelate control
// flow, data addresses and sampling.
func NewStream(prof Profile, prog *program.Program, layout program.Layout, seed int64) *Stream {
	s := &Stream{
		prof:   prof,
		prog:   prog,
		layout: layout,
		walker: program.NewWalker(prog, seed),
		data:   NewDataGen(prof, seed+0x9E37),
		rng:    rand.New(rand.NewSource(seed + 0x79B9)),
	}
	s.advanceBlock()
	return s
}

func (s *Stream) advanceBlock() {
	var id program.BlockID
	id, s.blkTaken = s.walker.Next()
	s.b = &s.prog.Blocks[id]
	s.base = s.layout.BlockAddr(id)
	s.pos = 0
	s.n = program.ExecutedWords(s.b, s.blkTaken)
}

// Next returns the next dynamic instruction.
func (s *Stream) Next() Instr {
	var in Instr
	s.NextInto(&in)
	return in
}

// NextInto overwrites *in with the next dynamic instruction — Next
// without the per-call copy of the result, for the timing model's loop.
func (s *Stream) NextInto(in *Instr) {
	for s.pos >= s.n {
		s.advanceBlock()
	}
	b := s.b
	*in = Instr{
		PC:       s.base + uint64(4*s.pos),
		Kind:     b.Kinds[s.pos],
		Overhead: b.TransformAdded && s.pos == b.Size-1,
	}
	last := s.pos == s.n-1
	switch in.Kind {
	case program.KindLoad, program.KindStore:
		in.MemAddr = s.data.Next()
	case program.KindBranch:
		switch {
		case b.Term == program.TermBranch && b.ExplicitFall && s.pos == b.Size-2:
			// The conditional of an explicit-fall block. When taken it is
			// also the last executed word (the appended jump is skipped);
			// when not taken it executes mid-block and does not redirect.
			in.Taken = s.blkTaken
			in.Mispredicted = s.rng.Float64() < s.prof.MispredictRate
		case last && b.Term == program.TermBranch && !b.ExplicitFall:
			in.Taken = s.blkTaken
			in.Mispredicted = s.rng.Float64() < s.prof.MispredictRate
		default:
			// Unconditional control transfers: TermJump terminators,
			// chain jumps, and appended fall jumps. The 512-entry BTB
			// captures these; they redirect but are not mispredicted.
			in.Taken = true
		}
	case program.KindALU:
		// No memory address or control flow to synthesize.
	}
	if s.prevWasLoad && in.Kind != program.KindBranch {
		in.DependsOnLoad = s.rng.Float64() < s.prof.LoadUseDepProb
	}
	s.prevWasLoad = in.Kind == program.KindLoad
	s.pos++
	s.Instructions++
}

// BuildProgram generates the benchmark's CFG and applies no layout: the
// caller links it (conventionally or with BBR) and wraps it in a Stream.
func BuildProgram(prof Profile, seed int64, transform func(*program.Program) (*program.Program, error)) (*program.Program, error) {
	cfg := program.GenConfig{
		Blocks:        prof.CodeBlocks,
		LoadFrac:      prof.LoadFrac,
		StoreFrac:     prof.StoreFrac,
		MeanTripCount: prof.MeanTripCount,
	}
	p := program.Generate(cfg, rand.New(rand.NewSource(seed)))
	if transform == nil {
		return p, nil
	}
	return transform(p)
}
