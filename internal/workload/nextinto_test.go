package workload

import (
	"testing"

	"repro/internal/bbr"
	"repro/internal/faultmap"
	"repro/internal/program"
)

// TestNextIntoMatchesNext drains two streams of one seed, one through
// Next and one through NextInto into a reused (pre-dirtied) slot, and
// requires identical sequences — on a conventional program and on a
// BBR-transformed, BBR-linked one, whose appended jumps exercise the
// Overhead and explicit-fall paths.
func TestNextIntoMatchesNext(t *testing.T) {
	prof, err := ByName("basicmath")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 5
	build := func(t *testing.T, transformed bool) *Stream {
		t.Helper()
		if !transformed {
			prog, err := BuildProgram(prof, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			return NewStream(prof, prog, program.NewSequentialLayout(prog, 0), seed)
		}
		prog, err := BuildProgram(prof, seed, func(p *program.Program) (*program.Program, error) {
			tp, _, err := bbr.Transform(p, bbr.DefaultTransformConfig())
			return tp, err
		})
		if err != nil {
			t.Fatal(err)
		}
		pl, err := bbr.Link(prog, faultmap.New(32*1024/4), 0)
		if err != nil {
			t.Fatal(err)
		}
		return NewStream(prof, prog, pl, seed)
	}
	for _, transformed := range []bool{false, true} {
		a, b := build(t, transformed), build(t, transformed)
		in := Instr{PC: ^uint64(0), MemAddr: ^uint64(0), Taken: true, Mispredicted: true, DependsOnLoad: true, Overhead: true}
		var overhead, mispredicts int
		for i := 0; i < 200_000; i++ {
			want := a.Next()
			b.NextInto(&in)
			if in != want {
				t.Fatalf("transformed=%v instr %d: NextInto %+v, Next %+v", transformed, i, in, want)
			}
			if in.Overhead {
				overhead++
			}
			if in.Mispredicted {
				mispredicts++
			}
		}
		if a.Instructions != b.Instructions {
			t.Errorf("transformed=%v: Instructions %d vs %d", transformed, a.Instructions, b.Instructions)
		}
		if mispredicts == 0 || (overhead == 0) == transformed {
			t.Errorf("transformed=%v: %d overhead jumps, %d mispredicts: stream paths not exercised", transformed, overhead, mispredicts)
		}
	}
}
