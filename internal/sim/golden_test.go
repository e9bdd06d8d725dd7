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

// TestEvalRowGridGolden regenerates the pinned grid at several worker
// counts: a row fans its runs out over the engine's simulation slots,
// so the digest must not depend on how many run at once.
func TestEvalRowGridGolden(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			if got := gridDigest(t, NewEngine(w)); got != gridGoldenSHA256 {
				t.Errorf("grid digest = %s, want %s", got, gridGoldenSHA256)
			}
		})
	}
}

// gridDigest runs the pinned grid on eng and returns its sha256.
func gridDigest(t *testing.T, eng *Engine) string {
	t.Helper()
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
	return hex.EncodeToString(h.Sum(nil))
}
