package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/inject"
)

// The event-driven hierarchy's results are pinned across versions: the
// sha256 of each run's JSON (which carries the kernel's event count,
// the simulated end time and the shared L2's ledger) was taken before
// the hierarchy's hot path was reworked and is never updated by a
// speed-only change. A changed digest means a simulated result moved.
const (
	hierGoldenSHA256          = "dfe5f02245c94848283f3dbba978aa8ed9f37bbee98ffd26cb65ff78e76d6af4"
	hierContendedGoldenSHA256 = "a80db9b8190a3727549087cab4f62963f8463e82ce8ebbc6bce204d18f6f69c6"
	hierChaosGoldenSHA256     = "79ec2a9010a6540d223d8d705dcccc56a751024f1c4b765639f7591a8dacd1e7"
)

func goldenHierSpec() HierSpec {
	return HierSpec{
		Scheme: FFWBBR, Instructions: 20_000, CPU: cpu.DefaultConfig(),
		Cores: []HierCoreSpec{
			{Benchmark: "429.mcf", MV: 400, MapSeed: 5, WorkSeed: 1},
			{Benchmark: "crc32", MV: 440, MapSeed: 6, WorkSeed: 2},
		},
	}
}

func goldenHierChaosSpec() HierChaosSpec {
	return HierChaosSpec{
		Cores: []HierChaosCoreSpec{
			{Benchmark: "429.mcf", DieSeed: 3, WorkSeed: 1, StartMV: 400},
			{Benchmark: "crc32", DieSeed: 4, WorkSeed: 2, StartMV: 400},
		},
		Inject: inject.Params{Seed: 9, Intensity: 5},
		Epochs: 4, EpochInstructions: 10_000,
		CPU:     cpu.DefaultConfig(),
		Backoff: dvfs.BackoffConfig{UpThreshold: 3, DownThreshold: 2, StableEpochs: 2},
	}
}

func jsonDigest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestHierarchyGolden pins a default-L2 run and one squeezed to a
// single bank and a single MSHR, so bank waits and MSHR stalls (the
// fill path) are in the pinned bytes too.
func TestHierarchyGolden(t *testing.T) {
	contended := goldenHierSpec()
	contended.Banks, contended.MSHRs = 1, 1
	for _, tc := range []struct {
		name string
		spec HierSpec
		want string
	}{
		{"default", goldenHierSpec(), hierGoldenSHA256},
		{"contended", contended, hierContendedGoldenSHA256},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunHierarchy(context.Background(), tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Events == 0 || res.ElapsedFS == 0 || res.L2.Reads == 0 {
				t.Fatalf("degenerate run: %d events, %d fs, %d L2 reads", res.Events, res.ElapsedFS, res.L2.Reads)
			}
			if tc.spec.MSHRs == 1 && (res.L2.MSHRWaitFS == 0 || res.L2.BankWaitFS == 0) {
				t.Fatalf("contended run saw no contention: %+v", res.L2)
			}
			if got := jsonDigest(t, res); got != tc.want {
				t.Errorf("hierarchy digest = %s, want %s", got, tc.want)
			}
		})
	}
}

func TestHierChaosGolden(t *testing.T) {
	res, err := RunHierChaos(context.Background(), goldenHierChaosSpec())
	if err != nil {
		t.Fatal(err)
	}
	var detected uint64
	transitions := 0
	for _, c := range res.Cores {
		detected += c.Totals.Detected
		transitions += c.StepUps + c.StepDowns
	}
	if detected == 0 || transitions == 0 {
		t.Fatalf("campaign exercises too little: %d detected faults, %d voltage transitions", detected, transitions)
	}
	if got := jsonDigest(t, res); got != hierChaosGoldenSHA256 {
		t.Errorf("hierarchy chaos digest = %s, want %s", got, hierChaosGoldenSHA256)
	}
}
