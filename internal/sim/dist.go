// Distributed execution bridge: registers the simulation job kinds with
// internal/dist so every command binary can both supervise a sharded
// campaign and serve as one of its worker processes. Each kind's
// payload/result types carry only exported fields of exact-round-trip
// JSON types (float64, integers, strings), so a result that crosses the
// process boundary formats byte-identically to one computed in-process.

package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/cpu"
	"repro/internal/dist"
	"repro/internal/dvfs"
	"repro/internal/energy"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The distributed job kinds every command binary registers.
const (
	// KindRow is lvsim's unit: one (scheme, benchmark) Monte Carlo cell.
	KindRow = "sim.row"
	// KindChaos is lvchaos's unit: one fault-injection campaign.
	KindChaos = "sim.chaos"
	// KindDie is lvdie's unit: one die's full DVFS-ladder sweep.
	KindDie = "sim.die"
	// KindHier is lvsim -hierarchy's unit: one event-driven multicore
	// run (one Monte Carlo die set).
	KindHier = "sim.hier"
	// KindHierChaos is lvchaos -hierarchy's unit: one multicore
	// fault-injection campaign.
	KindHierChaos = "sim.hierchaos"
)

// DistSetup is the per-process configuration shipped to every worker
// (and applied identically in-process): it is part of the grid hash, so
// a checkpoint is only resumable under the same setup.
type DistSetup struct {
	// Workers bounds each worker process's engine pool; 0 selects
	// GOMAXPROCS. It also bounds the simulations running at once: a row
	// runs its baseline and maps concurrently on the engine's simulation
	// slots (one per worker), and die sweeps fan their operating points
	// out on this pool. Chaos campaigns are internally sequential.
	Workers int `json:"workers,omitempty"`
	// TimeoutNS bounds a unit of work, kind-specific: per simulation run
	// for rows and die sweeps (Engine.SetJobTimeout), per campaign for
	// chaos jobs — mirroring what the commands' -timeout flag bounded
	// before distribution existed.
	TimeoutNS int64 `json:"timeout_ns,omitempty"`
	// Profiles holds custom workload profiles (workload.FromJSON format)
	// to register before running jobs — how lvsim's -profile reaches
	// worker processes, which never see the original flag.
	Profiles []json.RawMessage `json:"profiles,omitempty"`
}

// parseDistSetup decodes the per-process setup and registers its custom
// workload profiles (tolerating ones the host process already
// registered, as in-process execution after a -profile flag has). Kinds
// that don't need a sim Engine — the event-driven hierarchy runners —
// use it directly.
func parseDistSetup(setup json.RawMessage) (DistSetup, error) {
	var ds DistSetup
	if len(setup) > 0 {
		if err := json.Unmarshal(setup, &ds); err != nil {
			return DistSetup{}, fmt.Errorf("sim: dist setup: %w", err)
		}
	}
	for _, raw := range ds.Profiles {
		p, err := workload.FromJSON(raw)
		if err != nil {
			return DistSetup{}, err
		}
		if _, err := workload.ByName(p.Name); err == nil {
			continue // already registered in this process
		}
		if err := workload.Register(p); err != nil {
			return DistSetup{}, err
		}
	}
	return ds, nil
}

// distEngine builds the per-process engine a kind's jobs share: custom
// profiles registered, pool bounded, run timeout applied.
func distEngine(setup json.RawMessage, runTimeout bool) (*Engine, error) {
	ds, err := parseDistSetup(setup)
	if err != nil {
		return nil, err
	}
	eng := NewEngine(ds.Workers)
	if runTimeout {
		eng.SetJobTimeout(time.Duration(ds.TimeoutNS))
	}
	return eng, nil
}

// jobTimeout wraps ctx with the setup's per-unit timeout when one is
// configured; the returned cancel must always be called.
func (ds DistSetup) jobTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if ds.TimeoutNS > 0 {
		return context.WithTimeout(ctx, time.Duration(ds.TimeoutNS))
	}
	return context.WithCancel(ctx)
}

// RowSpec is one lvsim grid cell: a scheme × benchmark Monte Carlo
// evaluation at one operating point.
type RowSpec struct {
	Scheme       Scheme     `json:"scheme"`
	Benchmark    string     `json:"benchmark"`
	MV           int        `json:"mv"`
	Maps         int        `json:"maps"`
	Seed         int64      `json:"seed"`
	Instructions uint64     `json:"instructions"`
	CPU          cpu.Config `json:"cpu"`
}

// RowResult is the cell's Monte Carlo aggregate. Samples 0 means every
// fault map failed yield (lvsim prints dashes).
type RowResult struct {
	Samples            int     `json:"samples"`
	YieldFails         int     `json:"yield_fails"`
	MeanCPI            float64 `json:"mean_cpi"`
	MeanRuntimeMS      float64 `json:"mean_runtime_ms"`
	MeanL2PerKiloInstr float64 `json:"mean_l2k"`
	MeanNormEPI        float64 `json:"mean_norm_epi"`
}

// EvalRow runs one lvsim cell: the conventional 760 mV baseline (shared
// across this engine's rows via the run memo) and Maps fault maps at the
// cell's operating point, aggregating the survivors. This is the
// computation lvsim's table is made of, shared verbatim by its
// in-process and distributed paths.
//
// The baseline and the maps run concurrently on the engine's simulation
// slots and fold in map order afterwards, so the result is the same at
// any worker count. The error is the lowest-index one that is not a
// yield failure, the baseline first; a failing run does not cancel its
// siblings, whose in-flight runs other rows may be waiting on.
func (e *Engine) EvalRow(ctx context.Context, spec RowSpec) (RowResult, error) {
	op, err := dvfs.PointAt(spec.MV)
	if err != nil {
		return RowResult{}, err
	}
	specs := make([]RunSpec, 1, 1+max(spec.Maps, 0))
	specs[0] = RunSpec{
		Scheme: Conventional, Benchmark: spec.Benchmark, Op: dvfs.Nominal(),
		WorkSeed: spec.Seed, Instructions: spec.Instructions, CPU: spec.CPU,
	}
	for m := 0; m < spec.Maps; m++ {
		specs = append(specs, RunSpec{
			Scheme: spec.Scheme, Benchmark: spec.Benchmark, Op: op,
			MapSeed: spec.Seed + int64(m), WorkSeed: spec.Seed,
			Instructions: spec.Instructions, CPU: spec.CPU,
		})
	}
	results, errs := e.runAll(ctx, specs)
	if errs[0] != nil {
		return RowResult{}, errs[0]
	}
	baseline := results[0]
	model := energy.DefaultModel()
	var cpis, runtimes, l2ks, epis []float64
	yieldFails := 0
	for i, r := range results[1:] {
		err := errs[1+i]
		if errors.Is(err, ErrYield) {
			yieldFails++
			continue
		}
		if err != nil {
			return RowResult{}, err
		}
		norm, err := model.Normalized(r, op, L1StaticFactor(spec.Scheme), baseline)
		if err != nil {
			return RowResult{}, err
		}
		cpis = append(cpis, r.CPI())
		runtimes = append(runtimes, 1e3*r.RuntimeSeconds(op.FreqMHz))
		l2ks = append(l2ks, r.L2PerKiloInstr())
		epis = append(epis, norm)
	}
	res := RowResult{Samples: len(cpis), YieldFails: yieldFails}
	if len(cpis) > 0 {
		res.MeanCPI = stats.Mean(cpis)
		res.MeanRuntimeMS = stats.Mean(runtimes)
		res.MeanL2PerKiloInstr = stats.Mean(l2ks)
		res.MeanNormEPI = stats.Mean(epis)
	}
	return res, nil
}

// DieSpec is one lvdie unit: a die identity plus the sweep parameters.
type DieSpec struct {
	Scheme       Scheme     `json:"scheme"`
	Benchmark    string     `json:"benchmark"`
	DieSeed      int64      `json:"die_seed"`
	WorkSeed     int64      `json:"work_seed"`
	Instructions uint64     `json:"instructions"`
	CPU          cpu.Config `json:"cpu"`
}

func init() {
	dist.Register(KindRow, func(setup json.RawMessage) (dist.Runner, error) {
		eng, err := distEngine(setup, true)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
			var spec RowSpec
			if err := json.Unmarshal(payload, &spec); err != nil {
				return nil, fmt.Errorf("sim: row payload: %w", err)
			}
			res, err := eng.EvalRow(ctx, spec)
			if err != nil {
				return nil, err
			}
			return json.Marshal(res)
		}, nil
	})

	dist.Register(KindChaos, func(setup json.RawMessage) (dist.Runner, error) {
		// Chaos campaigns take the -timeout bound per campaign (what
		// lvchaos's MapPartial timeout did), not per simulation run.
		eng, err := distEngine(setup, false)
		if err != nil {
			return nil, err
		}
		ds, err := parseDistSetup(setup)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
			var spec ChaosSpec
			if err := json.Unmarshal(payload, &spec); err != nil {
				return nil, fmt.Errorf("sim: chaos payload: %w", err)
			}
			ctx, cancel := ds.jobTimeout(ctx)
			defer cancel()
			res, err := eng.RunChaos(ctx, spec)
			if err != nil {
				return nil, err
			}
			return json.Marshal(res)
		}, nil
	})

	dist.Register(KindDie, func(setup json.RawMessage) (dist.Runner, error) {
		eng, err := distEngine(setup, true)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
			var spec DieSpec
			if err := json.Unmarshal(payload, &spec); err != nil {
				return nil, fmt.Errorf("sim: die payload: %w", err)
			}
			sweep, err := eng.SweepDie(ctx, spec.Scheme, spec.Benchmark, spec.DieSeed, spec.WorkSeed, spec.Instructions, spec.CPU)
			if err != nil {
				return nil, err
			}
			return json.Marshal(sweep)
		}, nil
	})

	dist.Register(KindHier, func(setup json.RawMessage) (dist.Runner, error) {
		// Hierarchy runs build a private event engine per job — no shared
		// sim Engine, so only the setup (profiles, timeout) applies. The
		// -timeout bound is per run, matching KindRow's semantics.
		ds, err := parseDistSetup(setup)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
			var spec HierSpec
			if err := json.Unmarshal(payload, &spec); err != nil {
				return nil, fmt.Errorf("sim: hier payload: %w", err)
			}
			ctx, cancel := ds.jobTimeout(ctx)
			defer cancel()
			res, err := RunHierarchy(ctx, spec)
			if errors.Is(err, ErrYield) {
				// An uncoverable die set is a Monte Carlo datum, mirroring
				// EvalRow's yield accounting — it must not abort the grid.
				return json.Marshal(&HierResult{YieldFail: true})
			}
			if err != nil {
				return nil, err
			}
			return json.Marshal(res)
		}, nil
	})

	dist.Register(KindHierChaos, func(setup json.RawMessage) (dist.Runner, error) {
		// Like KindChaos, the -timeout bound is per campaign.
		ds, err := parseDistSetup(setup)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
			var spec HierChaosSpec
			if err := json.Unmarshal(payload, &spec); err != nil {
				return nil, fmt.Errorf("sim: hierchaos payload: %w", err)
			}
			ctx, cancel := ds.jobTimeout(ctx)
			defer cancel()
			res, err := RunHierChaos(ctx, spec)
			if err != nil {
				return nil, err
			}
			return json.Marshal(res)
		}, nil
	})
}
