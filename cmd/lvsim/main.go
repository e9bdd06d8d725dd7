// Command lvsim runs individual low-voltage cache simulations: one or
// all schemes, one or all benchmarks, at a chosen DVFS operating point.
//
// Usage:
//
//	lvsim -scheme FFW+BBR -bench basicmath -mv 400
//	lvsim -mv 440 -n 1000000 -maps 10          # all schemes, all benchmarks
//	lvsim -mv 400 -workers 2                   # bound the worker pool
//	lvsim -mv 400 -shards 4 -checkpoint g.ckpt # sharded, crash-resumable
//	lvsim -mv 400 -shards 4 -checkpoint g.ckpt -resume
//	lvsim -hierarchy -cores 2 -mv 400          # event-driven multicore, shared L2
//	lvsim -hierarchy -cores 2 -mvs 400,560     # per-core voltage domains
//	lvsim -mv 400 -cpuprofile cpu.pprof        # profile the run (go tool pprof)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"

	"repro/internal/cpu"
	"repro/internal/dist"
	"repro/internal/dvfs"
	"repro/internal/hier"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	// Worker mode first: when the supervisor re-invokes this binary with
	// the hidden -dist-worker argument, serve jobs and never return. The
	// sim job kinds are registered by the sim package's init.
	dist.MaybeWorkerMain() //lvlint:ignore ctxflow a worker serves until supervisor stdin EOF; no context governs its lifetime

	log.SetFlags(0)
	log.SetPrefix("lvsim: ")
	var (
		scheme     = flag.String("scheme", "", "scheme to simulate (default: all); one of "+fmt.Sprint(sim.AllSchemes()))
		bench      = flag.String("bench", "", "comma-separated benchmarks (default: all); from "+fmt.Sprint(workload.Names()))
		mv         = flag.Int("mv", 400, "operating voltage in mV (Table II point)")
		n          = flag.Uint64("n", 400_000, "useful instructions per run")
		maps       = flag.Int("maps", 5, "Monte Carlo fault maps per cell")
		seed       = flag.Int64("seed", 1, "master random seed")
		workers    = flag.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
		timeout    = flag.Duration("timeout", 0, "per-run timeout (0 = none)")
		profile    = flag.String("profile", "", "JSON file with a custom workload profile to register")
		shards     = flag.Int("shards", 0, "worker subprocesses for the grid (0 = in-process)")
		checkpoint = flag.String("checkpoint", "", "durable checkpoint file for completed rows")
		resume     = flag.Bool("resume", false, "resume completed rows from -checkpoint")
		hierarchy  = flag.Bool("hierarchy", false, "event-driven multicore mode: -cores cores share a banked L2")
		ncores     = flag.Int("cores", 2, "cores in -hierarchy mode (benchmarks round-robin across them)")
		l2mv       = flag.Int("l2mv", 0, "uncore (shared L2) voltage in mV, -hierarchy mode (0 = nominal)")
		mvs        = flag.String("mvs", "", "comma-separated per-core voltages in mV overriding -mv (-hierarchy mode)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of this process to `file`")
	)
	flag.Parse()
	if *resume && *checkpoint == "" {
		log.Fatal("-resume requires -checkpoint")
	}
	if *cpuprofile != "" {
		stopProfile, err := prof.StartCPU(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		// The profile covers runs that finish: the error exits below
		// (log.Fatal, an interrupted grid) end the process without it.
		defer func() {
			if err := stopProfile(); err != nil {
				log.Fatalf("-cpuprofile: %v", err)
			}
		}()
	}

	setup := sim.DistSetup{Workers: *workers, TimeoutNS: int64(*timeout)}
	if *profile != "" {
		data, err := os.ReadFile(*profile)
		if err != nil {
			log.Fatal(err)
		}
		p, err := workload.FromJSON(data)
		if err != nil {
			log.Fatal(err)
		}
		if err := workload.Register(p); err != nil {
			log.Fatal(err)
		}
		// Worker processes never see -profile; the profile travels in the
		// grid setup instead (and pins the checkpoint's grid hash).
		setup.Profiles = append(setup.Profiles, json.RawMessage(data))
		if *bench == "" {
			*bench = p.Name
		}
	}

	if _, err := dvfs.PointAt(*mv); err != nil {
		log.Fatal(err)
	}
	schemes := sim.AllSchemes()
	if *scheme != "" {
		schemes = []sim.Scheme{sim.Scheme(*scheme)}
	}
	benchmarks := workload.Names()
	if *bench != "" {
		benchmarks = nil
		for _, b := range strings.Split(*bench, ",") {
			b = strings.TrimSpace(b)
			if _, err := workload.ByName(b); err != nil {
				log.Fatal(err)
			}
			benchmarks = append(benchmarks, b)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *hierarchy {
		coreMVs, err := parseMVs(*mvs, *ncores, *mv)
		if err != nil {
			log.Fatal(err)
		}
		runHierarchyGrid(ctx, hierGrid{
			schemes: schemes, benchmarks: benchmarks, coreMVs: coreMVs,
			l2mv: *l2mv, n: *n, maps: *maps, seed: *seed,
			shards: *shards, checkpoint: *checkpoint, resume: *resume, workers: *workers,
			setup: setup,
		})
		return
	}

	// Every (scheme, benchmark) row is one grid cell; the Monte Carlo
	// loop inside a cell is sequential (sim.Engine.EvalRow). Results
	// merge by index, so the table is byte-identical at any -shards
	// count — including 0, which runs the same code in-process with the
	// conventional 760 mV baseline shared through the engine's run memo.
	rows := make([]sim.RowSpec, 0, len(schemes)*len(benchmarks))
	for _, s := range schemes {
		for _, b := range benchmarks {
			rows = append(rows, sim.RowSpec{
				Scheme: s, Benchmark: b, MV: *mv, Maps: *maps,
				Seed: *seed, Instructions: *n, CPU: cpu.DefaultConfig(),
			})
		}
	}
	setupJSON, err := json.Marshal(setup)
	if err != nil {
		log.Fatal(err)
	}
	payloads := make([]json.RawMessage, len(rows))
	for i, r := range rows {
		if payloads[i], err = json.Marshal(r); err != nil {
			log.Fatal(err)
		}
	}

	// dist.Run has MapPartial semantics: an interrupt (SIGINT) flushes
	// the rows that already finished — and checkpointed rows survive
	// even a SIGKILL for a later -resume.
	results, done, err := dist.Run(ctx, sim.KindRow, payloads, dist.Options{
		Shards: *shards, Checkpoint: *checkpoint, Resume: *resume,
		Setup: setupJSON, LocalWorkers: *workers,
	})

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scheme\tbenchmark\tCPI\truntime(ms)\tL2/1k-instr\tEPI(norm)\tyield-fails")
	completed := 0
	for i := range results {
		if !done[i] {
			continue
		}
		var r sim.RowResult
		if derr := json.Unmarshal(results[i], &r); derr != nil {
			log.Fatalf("row %d result: %v", i, derr)
		}
		fmt.Fprintln(w, rowLine(rows[i], r))
		completed++
	}
	w.Flush()
	if err != nil {
		if errors.Is(err, context.Canceled) {
			log.Printf("interrupted after %d/%d runs", completed, len(rows))
			os.Exit(1)
		}
		log.Fatal(err)
	}
}

// rowLine formats one table row; a cell whose every fault map failed
// yield prints dashes.
func rowLine(spec sim.RowSpec, r sim.RowResult) string {
	if r.Samples == 0 {
		return fmt.Sprintf("%s\t%s\t-\t-\t-\t-\t%d", spec.Scheme, spec.Benchmark, r.YieldFails)
	}
	return fmt.Sprintf("%s\t%s\t%.3f\t%.3f\t%.1f\t%.3f\t%d",
		spec.Scheme, spec.Benchmark, r.MeanCPI, r.MeanRuntimeMS, r.MeanL2PerKiloInstr, r.MeanNormEPI, r.YieldFails)
}

// parseMVs resolves the per-core voltage domains: an explicit comma
// list names one Table II point per core; otherwise every core runs at
// the -mv point.
func parseMVs(list string, cores, def int) ([]int, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("need a positive -cores, got %d", cores)
	}
	out := make([]int, cores)
	if list == "" {
		for i := range out {
			out[i] = def
		}
		return out, nil
	}
	parts := strings.Split(list, ",")
	if len(parts) != cores {
		return nil, fmt.Errorf("-mvs names %d voltages for %d cores", len(parts), cores)
	}
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("-mvs: %v", err)
		}
		if _, err := dvfs.PointAt(v); err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// hierGrid carries the -hierarchy mode's resolved parameters.
type hierGrid struct {
	schemes    []sim.Scheme
	benchmarks []string
	coreMVs    []int
	l2mv       int
	n          uint64
	maps       int
	seed       int64
	shards     int
	checkpoint string
	resume     bool
	workers    int
	setup      sim.DistSetup
}

// runHierarchyGrid runs -maps Monte Carlo die sets per scheme through
// the event-driven multicore model: each die set is one dist job (so
// the grid shards and checkpoints like the trace grid), benchmarks
// round-robin across the cores, and each core keeps its own voltage
// domain. The report prints per-core means plus the shared L2's
// contention ledger per scheme.
func runHierarchyGrid(ctx context.Context, g hierGrid) {
	cores := len(g.coreMVs)
	specs := make([]sim.HierSpec, 0, len(g.schemes)*g.maps)
	for _, s := range g.schemes {
		for m := 0; m < g.maps; m++ {
			hs := sim.HierSpec{Scheme: s, L2MV: g.l2mv, Instructions: g.n, CPU: cpu.DefaultConfig()}
			for i := 0; i < cores; i++ {
				hs.Cores = append(hs.Cores, sim.HierCoreSpec{
					Benchmark: g.benchmarks[i%len(g.benchmarks)],
					MV:        g.coreMVs[i],
					MapSeed:   g.seed + int64(m*cores+i),
					WorkSeed:  g.seed + int64(i),
				})
			}
			specs = append(specs, hs)
		}
	}
	setupJSON, err := json.Marshal(g.setup)
	if err != nil {
		log.Fatal(err)
	}
	payloads := make([]json.RawMessage, len(specs))
	for i, s := range specs {
		if payloads[i], err = json.Marshal(s); err != nil {
			log.Fatal(err)
		}
	}
	results, done, err := dist.Run(ctx, sim.KindHier, payloads, dist.Options{
		Shards: g.shards, Checkpoint: g.checkpoint, Resume: g.resume,
		Setup: setupJSON, LocalWorkers: g.workers,
	})

	l2op := dvfs.Nominal()
	if g.l2mv != 0 {
		if l2op, err = dvfs.PointAt(g.l2mv); err != nil {
			log.Fatal(err)
		}
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scheme\tcore\tbenchmark\tmv\tCPI\truntime(ms)\tL2/1k-instr")
	completed := 0
	for si, s := range g.schemes {
		type coreAgg struct {
			cpi, ms, l2k float64
			n            int
		}
		aggs := make([]coreAgg, cores)
		var l2 hier.L2Stats
		var events uint64
		dies, yieldFails := 0, 0
		for m := 0; m < g.maps; m++ {
			idx := si*g.maps + m
			if !done[idx] {
				continue
			}
			completed++
			var r sim.HierResult
			if derr := json.Unmarshal(results[idx], &r); derr != nil {
				log.Fatalf("die %d result: %v", idx, derr)
			}
			if r.YieldFail {
				yieldFails++
				continue
			}
			dies++
			events += r.Events
			l2 = l2.Add(r.L2)
			for _, cr := range r.Cores {
				op, perr := dvfs.PointAt(cr.MV)
				if perr != nil {
					log.Fatal(perr)
				}
				aggs[cr.Core].cpi += cr.Result.CPI()
				aggs[cr.Core].ms += 1e3 * cr.Result.RuntimeSeconds(op.FreqMHz)
				aggs[cr.Core].l2k += cr.Result.L2PerKiloInstr()
				aggs[cr.Core].n++
			}
		}
		for i, a := range aggs {
			spec := specs[si*g.maps].Cores[i]
			if a.n == 0 {
				fmt.Fprintf(w, "%s\t%d\t%s\t%d\t-\t-\t-\n", s, i, spec.Benchmark, spec.MV)
				continue
			}
			fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%.3f\t%.3f\t%.1f\n",
				s, i, spec.Benchmark, spec.MV,
				a.cpi/float64(a.n), a.ms/float64(a.n), a.l2k/float64(a.n))
		}
		fmt.Fprintf(w, "%s\tL2\t%dmV\t\treads %d\tmerges %d\tmean-read-wait %.2fcy\tdies %d\tyield-fails %d\tevents %d\n",
			s, l2op.VoltageMV, l2.Reads, l2.Merges, l2.MeanReadWaitCycles(l2op), dies, yieldFails, events)
	}
	w.Flush()
	if err != nil {
		if errors.Is(err, context.Canceled) {
			log.Printf("interrupted after %d/%d die sets", completed, len(specs))
			os.Exit(1)
		}
		log.Fatal(err)
	}
}
