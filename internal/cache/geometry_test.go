package cache

import (
	"math/rand"
	"testing"
)

// Reference address arithmetic: the plain div/mod formulas that
// Geometry's shifts and masks replace.
func refIndex(c Config, addr uint64) int  { return int(BlockAddr(addr) % uint64(c.Sets())) }
func refTag(c Config, addr uint64) uint64 { return BlockAddr(addr) / uint64(c.Sets()) }
func refDMWay(c Config, addr uint64) int  { return int(refTag(c, addr) % uint64(c.Ways)) }
func refDMSlot(c Config, addr uint64) int { return int(BlockAddr(addr) % uint64(c.Blocks())) }
func refImageWord(c Config, addr uint64) int {
	return int(WordAddr(addr) % uint64(c.Words()))
}

func refDMImageWordIndex(c Config, i int) int {
	slot := i / WordsPerBlock
	word := i % WordsPerBlock
	set, way := slot%c.Sets(), slot/c.Sets()
	return (set*c.Ways+way)*WordsPerBlock + word
}

// geometryConfigs are the paper's two organizations plus a valid
// non-power-of-two-ways one, which exercises the modulo fallback.
func geometryConfigs(t *testing.T) []Config {
	t.Helper()
	cfgs := []Config{
		L1Config("L1"),
		L2Config(),
		{Name: "12way", SizeBytes: 12 * 128 * BlockBytes, Ways: 12, HitLatency: 3},
	}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if got := cfgs[2].Sets(); got != 128 {
		t.Fatalf("12-way config has %d sets, want 128", got)
	}
	return cfgs
}

func TestGeometryMatchesDivMod(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range geometryConfigs(t) {
		g := c.Geometry()
		for i := 0; i < 20000; i++ {
			addr := rng.Uint64()
			if i%2 == 0 {
				addr >>= rng.Intn(64) // cover small addresses too
			}
			if got, want := g.Index(addr), refIndex(c, addr); got != want || c.Index(addr) != want {
				t.Fatalf("%s: Index(%#x) = %d/%d, want %d", c.Name, addr, got, c.Index(addr), want)
			}
			if got, want := g.Tag(addr), refTag(c, addr); got != want || c.Tag(addr) != want {
				t.Fatalf("%s: Tag(%#x) = %d/%d, want %d", c.Name, addr, got, c.Tag(addr), want)
			}
			if got, want := g.DMWay(addr), refDMWay(c, addr); got != want || c.DMWay(addr) != want {
				t.Fatalf("%s: DMWay(%#x) = %d/%d, want %d", c.Name, addr, got, c.DMWay(addr), want)
			}
			if got, want := g.DMSlot(addr), refDMSlot(c, addr); got != want || c.DMSlot(addr) != want {
				t.Fatalf("%s: DMSlot(%#x) = %d/%d, want %d", c.Name, addr, got, c.DMSlot(addr), want)
			}
			if got, want := g.ImageWord(addr), refImageWord(c, addr); got != want {
				t.Fatalf("%s: ImageWord(%#x) = %d, want %d", c.Name, addr, got, want)
			}
		}
		for i := 0; i < c.Words(); i++ {
			if got, want := g.DMImageWordIndex(i), refDMImageWordIndex(c, i); got != want || c.DMImageWordIndex(i) != want {
				t.Fatalf("%s: DMImageWordIndex(%d) = %d/%d, want %d", c.Name, i, got, c.DMImageWordIndex(i), want)
			}
		}
	}
}

func TestDMImageWordIndexPermutation(t *testing.T) {
	for _, c := range geometryConfigs(t) {
		g := c.Geometry()
		seen := make([]bool, c.Words())
		for i := range seen {
			p := g.DMImageWordIndex(i)
			if p < 0 || p >= len(seen) || seen[p] {
				t.Fatalf("%s: image word %d maps to %d: out of range or repeated", c.Name, i, p)
			}
			seen[p] = true
		}
	}
}
