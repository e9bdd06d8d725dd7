// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (DESIGN.md's experiment index), plus ablations for
// the design choices called out there. Each benchmark regenerates its
// experiment at a reduced Monte Carlo scale per iteration and reports the
// headline series values via b.ReportMetric, so `go test -bench=.`
// doubles as a quick reproduction pass; cmd/lvreport runs the full-scale
// version.
package lvcache

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bbr"
	cachepkg "repro/internal/cache"
	"repro/internal/cacti"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/faultmap"
	"repro/internal/ffw"
	"repro/internal/inject"
	"repro/internal/program"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/sram"
	"repro/internal/workload"
)

func opAt(b *testing.B, mv int) dvfs.OperatingPoint {
	b.Helper()
	op, err := dvfs.PointAt(mv)
	if err != nil {
		b.Fatal(err)
	}
	return op
}

// BenchmarkFig2FailureProbability regenerates Figure 2: Pfail versus VCC
// at bit/word/block/cache granularity, plus the Vccmin solve that anchors
// the whole paper (760 mV for a 32 KB 6T array at 99.9% yield).
func BenchmarkFig2FailureProbability(b *testing.B) {
	model := sram.NewModel()
	var vccmin float64
	for i := 0; i < b.N; i++ {
		pts := model.GranularityCurve(sram.Cell6T, 350, 900, 10)
		if len(pts) == 0 {
			b.Fatal("empty curve")
		}
		vccmin = model.VccminMV(sram.Cell6T, sram.Cache32KBBits, sram.TargetYield)
	}
	b.ReportMetric(vccmin, "vccmin-mV")
}

// BenchmarkFig3SpatialLocality regenerates Figure 3's interval metrics
// for the whole suite and reports the suite-mean spatial locality and
// reuse rate.
func BenchmarkFig3SpatialLocality(b *testing.B) {
	var spatial, reuse float64
	for i := 0; i < b.N; i++ {
		res, err := sim.Fig3(60_000, 1)
		if err != nil {
			b.Fatal(err)
		}
		spatial, reuse = 0, 0
		for _, r := range res {
			spatial += r.MeanSpatial / float64(len(res))
			reuse += r.MeanReuse / float64(len(res))
		}
	}
	b.ReportMetric(spatial, "mean-spatial")
	b.ReportMetric(reuse, "mean-reuse")
}

// BenchmarkFig6EffectiveCapacity regenerates Figure 6: the effective
// instruction-cache capacity distribution and block/chunk size
// distributions for basicmath at 400 mV.
func BenchmarkFig6EffectiveCapacity(b *testing.B) {
	op := opAt(b, 400)
	var capKB, placeable float64
	for i := 0; i < b.N; i++ {
		res, err := sim.Fig6("basicmath", op, 10, 1)
		if err != nil {
			b.Fatal(err)
		}
		capKB, placeable = res.CapacityKB.Mean, res.Placeable
	}
	b.ReportMetric(capKB, "capacity-KB")
	b.ReportMetric(placeable, "placeable")
}

// BenchmarkFig9CriticalPaths regenerates Figure 9's FO4 timeline and
// reports the slack between the FFW pattern path and the data array —
// positive slack is the paper's zero-latency-overhead argument.
func BenchmarkFig9CriticalPaths(b *testing.B) {
	tech := cacti.Default45nm()
	var slack float64
	for i := 0; i < b.N; i++ {
		paths := tech.Fig9Timeline()
		slack = paths[0].FO4 - paths[1].FO4
	}
	b.ReportMetric(slack, "slack-FO4")
}

// BenchmarkTable3StaticOverheads regenerates Table III and reports the
// headline FFW/BBR area overheads.
func BenchmarkTable3StaticOverheads(b *testing.B) {
	tech := cacti.Default45nm()
	var ffwArea, bbrArea float64
	for i := 0; i < b.N; i++ {
		rows := tech.TableIII()
		for _, r := range rows {
			switch r.Scheme {
			case "FFW (dcache)":
				ffwArea = r.AreaPct - 100
			case "BBR (icache)":
				bbrArea = r.AreaPct - 100
			}
		}
	}
	b.ReportMetric(ffwArea, "ffw-area-%")
	b.ReportMetric(bbrArea, "bbr-area-%")
}

// evalGrid runs a reduced Figures 10–12 grid (two benchmarks, 560 and
// 400 mV) and is shared by the three figure benchmarks.
func evalGrid(b *testing.B) []sim.EvalCell {
	b.Helper()
	cfg := sim.QuickConfig()
	cfg.Instructions = 60_000
	cells, err := sim.Evaluate(cfg, sim.EvalSchemes(),
		[]string{"basicmath", "qsort"},
		[]dvfs.OperatingPoint{opAt(b, 560), opAt(b, 400)})
	if err != nil {
		b.Fatal(err)
	}
	return cells
}

// BenchmarkFig10Runtime regenerates Figure 10 (normalized runtime) and
// reports the proposed scheme's runtime at 400 mV next to FBA+'s.
func BenchmarkFig10Runtime(b *testing.B) {
	var ours, fba float64
	for i := 0; i < b.N; i++ {
		cells := evalGrid(b)
		if c, ok := sim.CellFor(cells, sim.FFWBBR, 400); ok {
			ours = c.NormRuntime
		}
		if c, ok := sim.CellFor(cells, sim.FBAPlus, 400); ok {
			fba = c.NormRuntime
		}
	}
	b.ReportMetric(ours, "ffwbbr-runtime-400mV")
	b.ReportMetric(fba, "fba+-runtime-400mV")
}

// BenchmarkFig11L2Accesses regenerates Figure 11 (L2 accesses per 1000
// instructions) and reports the proposed scheme against Simple-wdis at
// 400 mV.
func BenchmarkFig11L2Accesses(b *testing.B) {
	var ours, wdis float64
	for i := 0; i < b.N; i++ {
		cells := evalGrid(b)
		if c, ok := sim.CellFor(cells, sim.FFWBBR, 400); ok {
			ours = c.L2PerKilo
		}
		if c, ok := sim.CellFor(cells, sim.SimpleWdis, 400); ok {
			wdis = c.L2PerKilo
		}
	}
	b.ReportMetric(ours, "ffwbbr-L2-per-1k")
	b.ReportMetric(wdis, "wdis-L2-per-1k")
}

// BenchmarkFig12EPI regenerates Figure 12 (normalized EPI) and reports
// the proposed scheme's energy reduction at 400 mV (paper: 64%).
func BenchmarkFig12EPI(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		cells := evalGrid(b)
		if c, ok := sim.CellFor(cells, sim.FFWBBR, 400); ok {
			reduction = 100 * (1 - c.NormEPI)
		}
	}
	b.ReportMetric(reduction, "epi-reduction-%")
}

// BenchmarkFig10GridWorkers measures the experiment engine's wall-clock
// scaling: the same reduced Figures 10–12 grid at one worker versus the
// machine's full width. Each iteration gets a fresh engine — reusing one
// would turn every iteration after the first into pure memo hits and
// measure nothing. The two sub-benchmarks' ns/op ratio is the engine's
// speedup on this machine (≈1 on a single-core host).
func BenchmarkFig10GridWorkers(b *testing.B) {
	cfg := sim.QuickConfig()
	cfg.Instructions = 60_000
	benchmarks := []string{"basicmath", "qsort"}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ops := []dvfs.OperatingPoint{opAt(b, 560), opAt(b, 400)}
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine(workers)
				cells, err := eng.Evaluate(context.Background(), cfg, sim.EvalSchemes(), benchmarks, ops)
				if err != nil {
					b.Fatal(err)
				}
				if len(cells) != len(sim.EvalSchemes())*len(ops) {
					b.Fatalf("grid has %d cells", len(cells))
				}
			}
		})
	}
}

// BenchmarkAblationWindowPlacement compares FFW's two window placement
// policies (the paper's centered policy vs Figure 5's first-k default) by
// data-cache hit rate under a reused-window workload at 400 mV.
func BenchmarkAblationWindowPlacement(b *testing.B) {
	op := opAt(b, 400)
	run := func(p ffw.WindowPlacement) float64 {
		r, err := sim.Run(sim.RunSpec{
			Scheme: sim.FFWBBR, Benchmark: "basicmath", Op: op,
			MapSeed: 1, WorkSeed: 1, Instructions: 60_000,
			CPU: cpu.DefaultConfig(), Placement: p,
		})
		if err != nil {
			b.Fatal(err)
		}
		return r.L2PerKiloInstr()
	}
	var centered, firstK float64
	for i := 0; i < b.N; i++ {
		centered = run(ffw.PlacementCentered)
		firstK = run(ffw.PlacementFirstK)
	}
	b.ReportMetric(centered, "centered-L2-per-1k")
	b.ReportMetric(firstK, "firstk-L2-per-1k")
}

// BenchmarkAblationFBAEntries sweeps the fault-buffer size (the paper
// contrasts a realistic 64 with the optimistic 1024) and reports the L2
// traffic of each at 400 mV.
func BenchmarkAblationFBAEntries(b *testing.B) {
	for _, entries := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			op := opAt(b, 400)
			scheme := sim.FBA64
			if entries >= 1024 {
				scheme = sim.FBAPlus
			}
			_ = scheme
			var l2k float64
			for i := 0; i < b.N; i++ {
				// Build directly so intermediate sizes are exercised too.
				fm := faultmap.Generate(32*1024/4, op.PfailBit, rand.New(rand.NewSource(1)))
				fmI := faultmap.Generate(32*1024/4, op.PfailBit, rand.New(rand.NewSource(2)))
				next := core.NewNextLevel(core.MemLatencyCycles(op.FreqMHz))
				ic, err := schemes.NewFBA(fmI, next, entries)
				if err != nil {
					b.Fatal(err)
				}
				dc, err := schemes.NewFBA(fm, next, entries)
				if err != nil {
					b.Fatal(err)
				}
				prof, _ := workload.ByName("qsort")
				prog, _ := workload.BuildProgram(prof, 1, nil)
				s := workload.NewStream(prof, prog, program.NewSequentialLayout(prog, 0), 1)
				r, err := cpu.Run(cpu.DefaultConfig(), s, ic, dc, next, 60_000)
				if err != nil {
					b.Fatal(err)
				}
				l2k = r.L2PerKiloInstr()
			}
			b.ReportMetric(l2k, "L2-per-1k")
		})
	}
}

// BenchmarkAblationBBRSplitThreshold sweeps the compiler's block-split
// threshold: smaller pieces fit scarce chunks more easily (fewer gaps)
// but execute more chaining jumps.
func BenchmarkAblationBBRSplitThreshold(b *testing.B) {
	op := opAt(b, 400)
	for _, threshold := range []int{4, 6, 8, 12} {
		b.Run(fmt.Sprintf("threshold=%d", threshold), func(b *testing.B) {
			var gapFrac, overhead float64
			for i := 0; i < b.N; i++ {
				prof, _ := workload.ByName("basicmath")
				src, err := workload.BuildProgram(prof, 1, nil)
				if err != nil {
					b.Fatal(err)
				}
				cfgT := bbr.DefaultTransformConfig()
				cfgT.SplitThreshold = threshold
				prog, stats, err := bbr.Transform(src, cfgT)
				if err != nil {
					b.Fatal(err)
				}
				fm := faultmap.Generate(32*1024/4, op.PfailBit, rand.New(rand.NewSource(3)))
				pl, err := bbr.Link(prog, fm, 0)
				if err != nil {
					b.Fatal(err)
				}
				gapFrac = float64(pl.GapWords) / float64(pl.CodeWords)
				overhead = float64(stats.AddedWords) / float64(src.StaticInstrs())
			}
			b.ReportMetric(100*gapFrac, "gap-%")
			b.ReportMetric(100*overhead, "code-growth-%")
		})
	}
}

// BenchmarkAblationDMvsSA quantifies the cost of BBR's direct-mapped
// low-voltage mode: the same linked program fetched through the BBR
// direct-mapped cache versus a (defect-oblivious) 4-way set-associative
// cache with the same layout — an upper bound no real design could reach,
// since set-associative placement cannot give software slot control.
func BenchmarkAblationDMvsSA(b *testing.B) {
	op := opAt(b, 400)
	prof, _ := workload.ByName("429.mcf") // large live footprint: conflicts matter
	var dmMiss, saMiss float64
	for i := 0; i < b.N; i++ {
		prog, err := workload.BuildProgram(prof, 1, func(p *program.Program) (*program.Program, error) {
			t, _, terr := bbr.Transform(p, bbr.DefaultTransformConfig())
			return t, terr
		})
		if err != nil {
			b.Fatal(err)
		}
		fm := faultmap.Generate(32*1024/4, op.PfailBit, rand.New(rand.NewSource(4)))
		pl, err := bbr.Link(prog, fm, 0)
		if err != nil {
			b.Fatal(err)
		}
		fetchAll := func(ic core.InstrCache) float64 {
			w := program.NewWalker(prog, 5)
			misses := 0
			total := 0
			for total < 60_000 {
				blk, taken := w.Next()
				base := pl.BlockAddr(blk)
				for k := 0; k < program.ExecutedWords(&prog.Blocks[blk], taken); k++ {
					if !ic.Fetch(base + uint64(4*k)).Hit {
						misses++
					}
					total++
				}
			}
			return 1000 * float64(misses) / float64(total)
		}
		next := core.NewNextLevel(core.MemLatencyCycles(op.FreqMHz))
		dm, err := bbr.NewICache(fm, next)
		if err != nil {
			b.Fatal(err)
		}
		dmMiss = fetchAll(dm)
		saMiss = fetchAll(schemes.NewDefectFree(core.NewNextLevel(core.MemLatencyCycles(op.FreqMHz))))
	}
	b.ReportMetric(dmMiss, "dm-misses-per-1k")
	b.ReportMetric(saMiss, "sa-misses-per-1k")
}

// BenchmarkAblationScatterFFW compares the paper's contiguous windows
// with the non-contiguous "scatter" extension (per-word LRU replacement
// inside the frame) on a reuse-heavy benchmark at 400 mV.
func BenchmarkAblationScatterFFW(b *testing.B) {
	op := opAt(b, 400)
	run := func(scatter bool) float64 {
		r, err := sim.Run(sim.RunSpec{
			Scheme: sim.FFWBBR, Benchmark: "adpcm", Op: op,
			MapSeed: 1, WorkSeed: 1, Instructions: 60_000,
			CPU: cpu.DefaultConfig(), Scatter: scatter,
		})
		if err != nil {
			b.Fatal(err)
		}
		return r.L2PerKiloInstr()
	}
	var window, scatter float64
	for i := 0; i < b.N; i++ {
		window = run(false)
		scatter = run(true)
	}
	b.ReportMetric(window, "window-L2-per-1k")
	b.ReportMetric(scatter, "scatter-L2-per-1k")
}

// BenchmarkAblationLinkerFit compares Algorithm 1's first-fit linker with
// a best-fit bin-packing variant: packing quality (laps over the cache)
// versus the fetch miss rate the resulting placement produces.
func BenchmarkAblationLinkerFit(b *testing.B) {
	op := opAt(b, 400)
	prof, _ := workload.ByName("429.mcf")
	prog, err := workload.BuildProgram(prof, 1, func(p *program.Program) (*program.Program, error) {
		t, _, terr := bbr.Transform(p, bbr.DefaultTransformConfig())
		return t, terr
	})
	if err != nil {
		b.Fatal(err)
	}
	measure := func(link func(*program.Program, *faultmap.Map, uint64) (*bbr.Placement, error)) (laps, missPerK float64) {
		fm := faultmap.Generate(32*1024/4, op.PfailBit, rand.New(rand.NewSource(6)))
		pl, err := link(prog, fm, 0)
		if err != nil {
			b.Fatal(err)
		}
		next := core.NewNextLevel(core.MemLatencyCycles(op.FreqMHz))
		ic, err := bbr.NewICache(fm, next)
		if err != nil {
			b.Fatal(err)
		}
		w := program.NewWalker(prog, 7)
		misses, total := 0, 0
		for total < 60_000 {
			blk, taken := w.Next()
			base := pl.BlockAddr(blk)
			for k := 0; k < program.ExecutedWords(&prog.Blocks[blk], taken); k++ {
				if !ic.Fetch(base + uint64(4*k)).Hit {
					misses++
				}
				total++
			}
		}
		if ic.DefectiveFetches != 0 {
			b.Fatalf("placement touched %d defective words", ic.DefectiveFetches)
		}
		return float64(pl.Laps), 1000 * float64(misses) / float64(total)
	}
	var ffLaps, ffMiss, bfLaps, bfMiss float64
	for i := 0; i < b.N; i++ {
		ffLaps, ffMiss = measure(bbr.Link)
		bfLaps, bfMiss = measure(bbr.LinkBestFit)
	}
	b.ReportMetric(ffLaps, "firstfit-laps")
	b.ReportMetric(ffMiss, "firstfit-miss-per-1k")
	b.ReportMetric(bfLaps, "bestfit-laps")
	b.ReportMetric(bfMiss, "bestfit-miss-per-1k")
}

// BenchmarkInjectRecovery measures the detection/recovery tax on the
// FFW+BBR run path: the same die and workload with the runtime fault
// layer disabled versus injecting at intensity 5 at 400 mV. Each
// sub-benchmark reports the simulated recovery time (RecoveryCycles at
// the operating point's clock period) as recovery-ns; scripts/bench.sh
// records the paired on-minus-off delta in BENCH_inject.json. Wall
// clock is deliberately not used for the delta — the two runs differ
// by milliseconds of OS noise, which used to drive the recorded
// overhead negative, while the simulated cycle count is exact and
// identical on every run of the same seeds.
func BenchmarkInjectRecovery(b *testing.B) {
	op := opAt(b, 400)
	cases := []struct {
		name   string
		params inject.Params
	}{
		{"inject=off", inject.Params{}},
		{"inject=on", inject.Params{Seed: 9, Intensity: 5}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var recovery float64
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(sim.RunSpec{
					Scheme: sim.FFWBBR, Benchmark: "qsort", Op: op,
					MapSeed: 1, WorkSeed: 1, Instructions: 60_000,
					CPU: cpu.DefaultConfig(), Inject: c.params,
				})
				if err != nil {
					b.Fatal(err)
				}
				recovery = r.RecoveryCycles
			}
			b.ReportMetric(recovery, "recovery-cycles")
			b.ReportMetric(recovery*op.Period(), "recovery-ns")
		})
	}
}

// BenchmarkChaosCampaign measures fault-injection campaign throughput:
// a ten-epoch back-off campaign per iteration, with the controller
// transition counts as sanity metrics.
func BenchmarkChaosCampaign(b *testing.B) {
	spec := sim.ChaosSpec{
		Benchmark: "qsort", DieSeed: 3, WorkSeed: 1,
		Inject:  inject.Params{Seed: 9, Intensity: 5},
		StartMV: 400, Epochs: 10, EpochInstructions: 30_000,
		CPU:     cpu.DefaultConfig(),
		Backoff: dvfs.BackoffConfig{UpThreshold: 3, DownThreshold: 2, StableEpochs: 2},
	}
	var ups, downs float64
	for i := 0; i < b.N; i++ {
		res, err := sim.NewEngine(1).RunChaos(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		ups, downs = float64(res.StepUps), float64(res.StepDowns)
	}
	b.ReportMetric(ups, "step-ups")
	b.ReportMetric(downs, "step-downs")
}

// BenchmarkAblationReplacement compares the L1 victim policies on the
// paper's geometry: Table I specifies true LRU; tree pseudo-LRU is what
// hardware builds; FIFO is the lower bound. Miss rates per 1000 accesses
// on a qsort-shaped data stream.
func BenchmarkAblationReplacement(b *testing.B) {
	prof, _ := workload.ByName("qsort")
	run := func(r cachepkg.Replacement) float64 {
		cfg := cachepkg.L1Config("ablate")
		cfg.Replacement = r
		c := cachepkg.MustNew(cfg)
		g := workload.NewDataGen(prof, 5)
		misses := 0
		const n = 120_000
		for i := 0; i < n; i++ {
			if !c.Access(g.Next(), false).Hit {
				misses++
			}
		}
		return 1000 * float64(misses) / n
	}
	var lru, plru, fifo float64
	for i := 0; i < b.N; i++ {
		lru = run(cachepkg.ReplaceLRU)
		plru = run(cachepkg.ReplacePLRU)
		fifo = run(cachepkg.ReplaceFIFO)
	}
	b.ReportMetric(lru, "lru-miss-per-1k")
	b.ReportMetric(plru, "plru-miss-per-1k")
	b.ReportMetric(fifo, "fifo-miss-per-1k")
}

// BenchmarkHierContention drives the event-driven multicore hierarchy:
// two FFW+BBR cores on distinct voltage domains contending for the
// shared L2 (per-core fault maps, write-buffer drains, MSHR merges).
// Reports the L2's mean contention wait — the shared-L2 contention
// experiment of BENCH_event.json.
func BenchmarkHierContention(b *testing.B) {
	spec := sim.HierSpec{
		Scheme: sim.FFWBBR, Instructions: 30_000, CPU: cpu.DefaultConfig(),
		Cores: []sim.HierCoreSpec{
			{Benchmark: "qsort", MV: 400, MapSeed: 3, WorkSeed: 1},
			{Benchmark: "dijkstra", MV: 560, MapSeed: 4, WorkSeed: 2},
		},
	}
	var wait float64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunHierarchy(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		wait = res.L2.MeanReadWaitCycles(dvfs.Nominal())
	}
	b.ReportMetric(wait, "L2-wait-cy")
}
