package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/workload"
)

// Engine schedules the experiment drivers onto a bounded worker pool
// with a seed-keyed run memo and one simulation slot per worker (see
// Run). One Engine per process invocation is the intended shape: every
// figure, sweep and ad-hoc run scheduled through the same Engine
// shares the memo, so a RunSpec executed once — a defect-free baseline
// shared by Figures 10–12, or the same cell requested by two reports —
// is never simulated twice.
//
// Determinism contract: every job the Engine schedules derives its
// randomness from seeds carried in the job's spec, never from
// scheduling, so results are byte-identical at any worker count
// (including 1) for the same master seed.
type Engine struct {
	pool *engine.Pool
	runs *engine.Memo[RunSpec, cpu.Result]
	// runFn is the single-run entry point. Tests substitute it to
	// inject failures and observe cancellation; production code always
	// goes through Run.
	runFn func(context.Context, RunSpec) (cpu.Result, error)
	// jobTimeout bounds each simulation run (and each chaos campaign
	// scheduled through ChaosCampaign); zero means unbounded.
	jobTimeout time.Duration
	// slots holds the engine's free simulation slots. Run takes one for
	// the length of a simulation and simulates on its next level. Slots
	// are built on demand, one token in made each, so there are never
	// more than Workers() of them and never more simulations at once.
	slots chan *slot
	made  chan struct{}
}

// slot is one simulation slot: the right to run one simulation, and
// the inline next level (the L2 and the write buffer) that every run on
// the slot reuses instead of allocating a fresh 512 KB L2.
type slot struct {
	next *core.NextLevel // nil until the slot's first run
}

// reset readies the slot's next level for a run whose memory costs
// memLatency cycles: built on first use, reset to the fresh state after.
func (s *slot) reset(memLatency int) error {
	if s.next == nil {
		s.next = core.NewNextLevel(memLatency)
		return nil
	}
	return s.next.Reset(memLatency)
}

// slotNextKey carries the held slot's next level from Run to runFn.
type slotNextKey struct{}

// runOnSlot is the engine's default runFn: RunContext on the next level
// of the slot Run holds.
func runOnSlot(ctx context.Context, spec RunSpec) (cpu.Result, error) {
	next, ok := ctx.Value(slotNextKey{}).(*core.NextLevel)
	if !ok {
		return cpu.Result{}, errors.New("sim: run outside a simulation slot")
	}
	return runOn(ctx, spec, next)
}

// NewEngine returns an engine with the given worker bound; workers <= 0
// selects GOMAXPROCS (the `-workers` flag default in every command).
// The run memo is unbounded — right for a one-shot CLI sweep whose key
// population is the grid itself; a long-lived process should bound it
// with NewEngineBounded.
func NewEngine(workers int) *Engine {
	return NewEngineBounded(workers, 0)
}

// NewEngineBounded is NewEngine with a cap on the run memo: at most
// maxRuns completed simulations stay cached, evicted least recently
// used (maxRuns <= 0 means unbounded). Singleflight coalescing is
// unaffected — an in-flight run is pinned until it completes — so a
// bounded engine trades only recall, never determinism or the
// one-computation-per-spec contract. This is what a serving layer
// wants: each distinct RunSpec otherwise leaks one cpu.Result for the
// life of the process.
func NewEngineBounded(workers, maxRuns int) *Engine {
	if maxRuns < 0 {
		maxRuns = 0
	}
	pool := engine.New(workers)
	return &Engine{
		pool:  pool,
		runs:  engine.NewMemoConfig(engine.MemoConfig[RunSpec, cpu.Result]{MaxEntries: maxRuns}),
		runFn: runOnSlot,
		slots: make(chan *slot, pool.Workers()),
		made:  make(chan struct{}, pool.Workers()),
	}
}

// Workers returns the engine's worker bound.
func (e *Engine) Workers() int { return e.pool.Workers() }

// Pool exposes the engine's worker pool so commands can schedule their
// own job grids (engine.Map) alongside the memoized drivers. The
// engine's no-nesting rule applies: a job running on this pool must not
// start another Map on it.
func (e *Engine) Pool() *engine.Pool { return e.pool }

// MemoStats reports the run memo's hit and miss counts — hits are
// simulations that were requested again and served from cache.
func (e *Engine) MemoStats() (hits, misses int64) {
	return e.runs.Hits(), e.runs.Misses()
}

// MemoEvictions reports completed runs dropped by a bounded engine's
// LRU cap (always 0 on an unbounded engine).
func (e *Engine) MemoEvictions() int64 { return e.runs.Evictions() }

// SetJobTimeout bounds every simulation run scheduled through the
// engine (the `-timeout` flag in the commands): a run exceeding d fails
// with an error wrapping context.DeadlineExceeded instead of hanging
// the sweep it belongs to. d <= 0 removes the bound. Set before
// scheduling work; the engine does not synchronize this field against
// in-flight runs.
func (e *Engine) SetJobTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e.jobTimeout = d
}

// JobTimeout returns the per-run bound (zero when unbounded).
func (e *Engine) JobTimeout() time.Duration { return e.jobTimeout }

// Run executes one simulation through the engine's memo, keyed on the
// fields the run reads (RunSpec.memoKey): a spec whose key already ran
// on this engine returns the cached result without simulating. The
// simulation itself runs on the key, so the result never depends on
// which of the specs sharing a key came first.
//
// The computation holds a simulation slot while it simulates, so a
// caller waiting on another caller's in-flight run holds none. The
// per-run timeout starts once the slot is held: time queued behind
// other simulations does not count against it.
func (e *Engine) Run(ctx context.Context, spec RunSpec) (cpu.Result, error) {
	spec = spec.memoKey()
	return e.runs.Do(ctx, spec, func() (cpu.Result, error) {
		s, err := e.acquire(ctx)
		if err != nil {
			return cpu.Result{}, err
		}
		defer e.release(s)
		if err := s.reset(core.MemLatencyCycles(spec.Op.FreqMHz)); err != nil {
			return cpu.Result{}, err
		}
		rctx := context.WithValue(ctx, slotNextKey{}, s.next)
		if e.jobTimeout > 0 {
			var cancel context.CancelFunc
			rctx, cancel = context.WithTimeout(rctx, e.jobTimeout)
			defer cancel()
		}
		r, err := e.runFn(rctx, spec)
		if err != nil && e.jobTimeout > 0 && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			err = fmt.Errorf("sim: %s/%s at %d mV exceeded the %v run timeout: %w",
				spec.Scheme, spec.Benchmark, spec.Op.VoltageMV, e.jobTimeout, err)
		}
		return r, err
	})
}

// acquire takes a free simulation slot, or builds one while fewer than
// Workers() exist, waiting as long as ctx allows.
func (e *Engine) acquire(ctx context.Context) (*slot, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case s := <-e.slots:
		return s, nil
	case e.made <- struct{}{}:
		return &slot{}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// release returns a slot taken by acquire. It never waits: e.slots has
// room for every slot the engine has built, so the default arm is
// unreachable.
func (e *Engine) release(s *slot) {
	select {
	case e.slots <- s:
	default:
	}
}

// runAll runs specs concurrently through Run and returns their results
// and errors by index. Each run takes a simulation slot, so this fans
// out no wider than the engine's worker bound however many specs there
// are, and it starts at most Workers() goroutines, which take specs in
// index order. A panicking run comes back as an *engine.PanicError.
//
// It does not schedule on e.pool: row jobs already run there (lvsim
// grids, lvserve sweeps, perfbench), and the pool forbids a job from
// nesting a Map.
// Slots nest safely because a slot is held only by a leaf simulation.
func (e *Engine) runAll(ctx context.Context, specs []RunSpec) ([]cpu.Result, []error) {
	results := make([]cpu.Result, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(len(specs), e.Workers()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				results[i], errs[i] = e.runContained(ctx, specs[i])
			}
		}()
	}
	wg.Wait()
	return results, errs
}

// runContained is Run with a panic returned as an *engine.PanicError,
// so one crashing simulation fails its row instead of the process. The
// memo has already dropped the panicking key and the slot went back on
// the way out, so the engine stays usable.
func (e *Engine) runContained(ctx context.Context, spec RunSpec) (r cpu.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, err = cpu.Result{}, &engine.PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	return e.Run(ctx, spec)
}

// validateEvalInputs rejects malformed evaluation requests up front —
// unknown scheme names, unknown or duplicate benchmarks — so a bad
// argument surfaces as one clear top-level error instead of failing
// deep inside Run on the first fault map of some cell.
func validateEvalInputs(ss []Scheme, benchmarks []string) error {
	known := make(map[Scheme]bool, len(AllSchemes()))
	for _, s := range AllSchemes() {
		known[s] = true
	}
	for _, s := range ss {
		if !known[s] {
			return fmt.Errorf("sim: unknown scheme %q (known: %v)", s, AllSchemes())
		}
	}
	seen := make(map[string]bool, len(benchmarks))
	for _, b := range benchmarks {
		if _, err := workload.ByName(b); err != nil {
			return err
		}
		if seen[b] {
			return fmt.Errorf("sim: duplicate benchmark %q", b)
		}
		seen[b] = true
	}
	return nil
}
