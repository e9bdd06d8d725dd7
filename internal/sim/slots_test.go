package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/engine"
)

// fakeResult is a run result the energy model accepts, for stub runFns
// that skip the simulator.
var fakeResult = cpu.Result{Instructions: 1000, Executed: 1000, BaseCycles: 1000}

// slotRow is a 400 mV Simple-wdis row: every map reads its seed, so a
// row of n maps is n+1 distinct runs.
func slotRow(maps int) RowSpec {
	return RowSpec{Scheme: SimpleWdis, Benchmark: "crc32", MV: 400, Maps: maps, Seed: 1,
		Instructions: 5_000, CPU: cpu.DefaultConfig()}
}

// checkSlotsReturned fails unless every slot the engine built is free.
func checkSlotsReturned(t *testing.T, e *Engine) {
	t.Helper()
	if free, built := len(e.slots), len(e.made); free != built || built > e.Workers() {
		t.Errorf("%d of %d built slots free (workers %d) after the row returned", free, built, e.Workers())
	}
}

// TestEvalRowBoundsConcurrentRuns: a row fans its runs out to exactly
// the engine's worker bound, and several rows in flight together never
// exceed it. In the single-row phase the first Workers() simulations
// wait until that many have started, so a row that does not fan out
// fails the test instead of hanging it.
func TestEvalRowBoundsConcurrentRuns(t *testing.T) {
	for _, w := range []int{1, 2, 3} {
		e := NewEngine(w)
		var active, peak, calls atomic.Int64
		allStarted := make(chan struct{})
		inner := e.runFn
		e.runFn = func(ctx context.Context, spec RunSpec) (cpu.Result, error) {
			n := active.Add(1)
			defer active.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			if c := calls.Add(1); c <= int64(w) {
				if c == int64(w) {
					close(allStarted)
				}
				select {
				case <-allStarted:
				case <-time.After(5 * time.Second):
				}
			}
			return inner(ctx, spec)
		}
		if _, err := e.EvalRow(context.Background(), slotRow(6)); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if p := peak.Load(); p != int64(w) {
			t.Errorf("workers=%d: one row peaked at %d concurrent runs, want %d", w, p, w)
		}

		var wg sync.WaitGroup
		errs := make([]error, 3)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				row := slotRow(6)
				row.Seed = int64(100 + 10*i)
				_, errs[i] = e.EvalRow(context.Background(), row)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("workers=%d row %d: %v", w, i, err)
			}
		}
		if p := peak.Load(); p > int64(w) {
			t.Errorf("workers=%d: rows peaked at %d concurrent runs", w, p)
		}
		checkSlotsReturned(t, e)
	}
}

// TestEvalRowFoldsLikeSequential: the row fanned out over four slots
// equals the row on one, where its runs go strictly in index order. The
// four-slot engine also bounds its runs, which must not take a run off
// its slot.
func TestEvalRowFoldsLikeSequential(t *testing.T) {
	row := slotRow(4)
	e := NewEngine(4)
	e.SetJobTimeout(time.Minute)
	got, err := e.EvalRow(context.Background(), row)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewEngine(1).EvalRow(context.Background(), row)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workers=4 row %+v, workers=1 row %+v", got, want)
	}
}

// TestEvalRowReturnsLowestIndexError: with a yield failure, and two
// distinct failures where the later map finishes first, the row reports
// the earlier map's failure at every worker count.
func TestEvalRowReturnsLowestIndexError(t *testing.T) {
	early, late := errors.New("map 2 failed"), errors.New("map 4 failed")
	for _, w := range []int{1, 2, 4} {
		e := NewEngine(w)
		e.runFn = func(ctx context.Context, spec RunSpec) (cpu.Result, error) {
			switch spec.MapSeed {
			case 2:
				return cpu.Result{}, ErrYield
			case 3:
				time.Sleep(20 * time.Millisecond)
				return cpu.Result{}, early
			case 5:
				return cpu.Result{}, late
			}
			return fakeResult, nil
		}
		if _, err := e.EvalRow(context.Background(), slotRow(6)); !errors.Is(err, early) {
			t.Errorf("workers=%d: err = %v, want %v", w, err, early)
		}
	}
}

// TestEvalRowContainsPanics: a panicking simulation fails its row with
// an *engine.PanicError instead of crashing the process, and the engine
// then runs the same row normally.
func TestEvalRowContainsPanics(t *testing.T) {
	e := NewEngine(2)
	inner := e.runFn
	e.runFn = func(ctx context.Context, spec RunSpec) (cpu.Result, error) {
		if spec.MapSeed == 3 {
			panic("simulator bug")
		}
		return inner(ctx, spec)
	}
	row := slotRow(4)
	_, err := e.EvalRow(context.Background(), row)
	var pe *engine.PanicError
	if !errors.As(err, &pe) || pe.Value != "simulator bug" {
		t.Fatalf("err = %v, want the contained panic", err)
	}
	checkSlotsReturned(t, e)

	e.runFn = inner
	got, err := e.EvalRow(context.Background(), row)
	if err != nil {
		t.Fatalf("row after a contained panic: %v", err)
	}
	want, err := NewEngine(1).EvalRow(context.Background(), row)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("row after a contained panic %+v, fresh engine %+v", got, want)
	}
}

// TestSlotWaitIsNotTimed: eight rows share one slot, so a run waits
// behind up to seven others (~210 ms), longer than the job timeout, but
// each run alone fits in it. Only the time a run holds its slot counts.
func TestSlotWaitIsNotTimed(t *testing.T) {
	const hold, timeout = 30 * time.Millisecond, 150 * time.Millisecond
	e := NewEngine(1)
	e.SetJobTimeout(timeout)
	e.runFn = func(ctx context.Context, spec RunSpec) (cpu.Result, error) {
		select {
		case <-time.After(hold):
			return fakeResult, nil
		case <-ctx.Done():
			return cpu.Result{}, ctx.Err()
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			row := slotRow(3)
			row.Seed = int64(1 + 100*i)
			_, errs[i] = e.EvalRow(context.Background(), row)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("row %d: %v (waiting for a slot counted against the run timeout)", i, err)
		}
	}
}

// TestEvalRowCancelIsPrompt: cancelling mid-row returns the
// cancellation at once, with every slot back and no goroutine left
// behind, whether a run was simulating, queued for a slot, or waiting
// on another row's in-flight run.
func TestEvalRowCancelIsPrompt(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(2)
	started := make(chan struct{}, 64)
	e.runFn = func(ctx context.Context, spec RunSpec) (cpu.Result, error) {
		started <- struct{}{}
		<-ctx.Done()
		return cpu.Result{}, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 2)
	for range 2 {
		// Two identical rows: the second waits on the first's runs.
		go func() {
			_, err := e.EvalRow(ctx, slotRow(8))
			done <- err
		}()
	}
	<-started
	<-started
	cancel()
	for range 2 {
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("EvalRow did not return after cancellation")
		}
	}
	checkSlotsReturned(t, e)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after cancellation, %d before", n, before)
	}
}
