package sim

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/cpu"
	"repro/internal/ffw"
	"repro/internal/inject"
)

// sameRun reports whether two direct simulations agree: equal results,
// or errors with the same text (yield failures included).
func sameRun(a cpu.Result, aErr error, b cpu.Result, bErr error) bool {
	if aErr != nil || bErr != nil {
		return aErr != nil && bErr != nil && aErr.Error() == bErr.Error() && errors.Is(aErr, ErrYield) == errors.Is(bErr, ErrYield)
	}
	return a == b
}

// TestMemoKeySimulatesLikeSpec is the key's soundness check: for every
// scheme, at a voltage with fault maps and at one without, simulating
// the key gives exactly what simulating the full spec gives, so the
// fields the key drops are fields the run never reads.
func TestMemoKeySimulatesLikeSpec(t *testing.T) {
	for _, mv := range []int{400, 760} {
		for _, s := range AllSchemes() {
			spec := RunSpec{Scheme: s, Benchmark: "qsort", Op: op(t, mv),
				MapSeed: 9, WorkSeed: 3, Instructions: 20_000, CPU: cpu.DefaultConfig(),
				Placement: ffw.PlacementFirstK, Scatter: true}
			key := spec.memoKey()
			want, wantErr := Run(spec)
			got, gotErr := Run(key)
			if !sameRun(got, gotErr, want, wantErr) {
				t.Errorf("%s@%d: key %+v ran to (%+v, %v), spec to (%+v, %v)", s, mv, key, got, gotErr, want, wantErr)
			}
			// Through the engine, the key's entry serves the spec.
			e := NewEngine(1)
			for _, req := range []RunSpec{key, spec} {
				memo, memoErr := e.Run(context.Background(), req)
				if !sameRun(memo, memoErr, want, wantErr) {
					t.Errorf("%s@%d: engine gave (%+v, %v), direct run (%+v, %v)", s, mv, memo, memoErr, want, wantErr)
				}
			}
			if hits, misses := e.MemoStats(); hits != 1 || misses != 1 {
				t.Errorf("%s@%d: spec and key took %d hits / %d misses, want one shared entry", s, mv, hits, misses)
			}
		}
	}
}

// TestMemoKeyKeepsInjection: the key never drops Inject, so injection on
// a scheme without recovery machinery fails through the engine as it
// does directly.
func TestMemoKeyKeepsInjection(t *testing.T) {
	for _, mv := range []int{400, 760} {
		for _, s := range AllSchemes() {
			if s == FFWBBR {
				continue
			}
			spec := RunSpec{Scheme: s, Benchmark: "qsort", Op: op(t, mv),
				MapSeed: 2, WorkSeed: 2, Instructions: 1000, CPU: cpu.DefaultConfig(),
				Inject: inject.Params{Seed: 1, Intensity: 1}}
			if spec.memoKey().Inject != spec.Inject {
				t.Errorf("%s@%d: key dropped Inject", s, mv)
			}
			if _, err := NewEngine(1).Run(context.Background(), spec); err == nil {
				t.Errorf("%s@%d: injection accepted through the engine", s, mv)
			}
		}
	}
}

// TestMemoKeyKeepsMapSeedWhereRead is the negative control: a scheme
// that reads its fault maps keeps MapSeed at a voltage where maps are
// drawn, and the seed does change what it simulates.
func TestMemoKeyKeepsMapSeedWhereRead(t *testing.T) {
	at400 := op(t, 400)
	for _, s := range AllSchemes() {
		spec := RunSpec{Scheme: s, Op: at400, MapSeed: 5}
		kept := spec.memoKey().MapSeed == spec.MapSeed
		if kept == mapFree(s) {
			t.Errorf("%s@400: key keeps MapSeed = %v, want %v", s, kept, !mapFree(s))
		}
	}
	e := NewEngine(1)
	base := RunSpec{Scheme: SimpleWdis, Benchmark: "qsort", Op: at400,
		WorkSeed: 1, Instructions: 20_000, CPU: cpu.DefaultConfig()}
	a, b := base, base
	a.MapSeed, b.MapSeed = 1, 2
	ra, err := e.Run(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := e.Run(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if ra == rb {
		t.Error("Simple-wdis gave one result for two fault-map seeds at 400 mV")
	}
	if _, misses := e.MemoStats(); misses != 2 {
		t.Errorf("two map seeds took %d memo misses, want 2", misses)
	}
}

// TestEvalRowDefectFreeSimulatesOnce: a DefectFree row's maps all share
// one key, so a 5-map row simulates the conventional baseline and one
// map, and the row still averages five samples.
func TestEvalRowDefectFreeSimulatesOnce(t *testing.T) {
	e := NewEngine(1)
	var runs atomic.Int64
	inner := e.runFn
	e.runFn = func(ctx context.Context, spec RunSpec) (cpu.Result, error) {
		runs.Add(1)
		return inner(ctx, spec)
	}
	res, err := e.EvalRow(context.Background(), RowSpec{Scheme: DefectFree, Benchmark: "crc32", MV: 400,
		Maps: 5, Seed: 1, Instructions: 20_000, CPU: cpu.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("5-map DefectFree row simulated %d runs, want 2 (baseline + one map)", n)
	}
	if res.Samples != 5 {
		t.Errorf("row folded %d samples, want 5", res.Samples)
	}
}
