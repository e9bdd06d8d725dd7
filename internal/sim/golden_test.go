package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/cpu"
)

// gridGoldenSHA256 pins the digest of a reduced lvsim grid: every scheme
// × three benchmarks at 400 and 560 mV, 20k instructions, 2 fault maps,
// seed 1. It is frozen across refactors of the per-instruction path
// (cache indexing, the instruction stream, the CPU loop): any change to
// it means a simulated result moved, not that the code got faster.
const gridGoldenSHA256 = "9f694f95a28bb360b4045db00d98742a9a98a2f05ad8aa0dc20d9eb08e3dc165"

func TestEvalRowGridGolden(t *testing.T) {
	eng := NewEngine(0)
	h := sha256.New()
	for _, mv := range []int{400, 560} {
		for _, s := range AllSchemes() {
			for _, b := range []string{"429.mcf", "basicmath", "crc32"} {
				spec := RowSpec{
					Scheme: s, Benchmark: b, MV: mv, Maps: 2, Seed: 1,
					Instructions: 20_000, CPU: cpu.DefaultConfig(),
				}
				res, err := eng.EvalRow(context.Background(), spec)
				if err != nil {
					t.Fatalf("%s/%s@%d: %v", s, b, mv, err)
				}
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s\t%s\t%d\t%s\n", s, b, mv, line)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != gridGoldenSHA256 {
		t.Errorf("grid digest = %s, want %s", got, gridGoldenSHA256)
	}
}
