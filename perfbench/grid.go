package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The grid workload is lvsim's default table: every scheme × every
// benchmark at 400 mV, gridMaps fault maps of gridInstr instructions.
const (
	gridMV    = 400
	gridMaps  = 5
	gridInstr = 400_000
	// The traced run rebuilds a sample of the same grid: every row,
	// one map, a quarter of the length.
	gridTraceMaps  = 1
	gridTraceInstr = 100_000
)

// setupProbes is how many times each set-up is timed; setup_s is the
// median.
const setupProbes = 15

func gridArgs(seed int64) []string {
	return []string{"-workers", strconv.Itoa(workers), "-seed", strconv.FormatInt(seed, 10), "-mv", strconv.Itoa(gridMV)}
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checkDigest compares a workload output digest with its pinned value
// on the development seed, and prints it for every seed.
func checkDigest(o *outcome, workload string, seed int64, digest string) {
	o.note("%s seed=%d digest=%s", workload, seed, digest)
	want, pinned := pinnedDigests[workload]
	if seed != devSeed || !pinned {
		return
	}
	o.check(digest == want, "%s digest %s, pinned %s", workload, digest, want)
}

// timeSetup runs a one-unit version of a command setupProbes times and
// returns the median wall time in seconds.
func timeSetup(ctx context.Context, o *outcome, bin string, args ...string) float64 {
	var walls []float64
	for i := 0; i < setupProbes; i++ {
		r, err := runMeasured(ctx, bin, args...)
		o.check(err == nil, "set-up probe: %v", err)
		walls = append(walls, r.wall.Seconds())
	}
	return median(walls)
}

// batchMetrics fills the end-to-end metrics of a one-command workload.
func batchMetrics(o *outcome, setup float64, r procRun, instrs float64, results int, ok bool) {
	wall := r.wall.Seconds()
	m := o.metrics
	m["setup_s"] = setup
	m["wall_s"] = wall
	m["sim_mips"] = instrs / 1e6 / wall
	m["cpu_s"] = r.cpuS
	m["peak_rss_mb"] = r.rssMB
	m["p50_ms"] = wall * 1e3
	m["p99_ms"] = wall * 1e3
	if ok {
		m["goodput_rps"] = float64(results) / wall
	} else {
		m["goodput_rps"] = 0
	}
}

func gridE2E(ctx context.Context, e env, o *outcome) error {
	lvsim := e.cmd("lvsim")
	setup := timeSetup(ctx, o, lvsim, append(gridArgs(e.seed), "-scheme", string(sim.FFWBBR), "-bench", "crc32", "-maps", "1", "-n", "1000")...)

	failedBefore := o.failed
	r, err := runMeasured(ctx, lvsim, gridArgs(e.seed)...)
	o.check(err == nil, "lvsim grid: %v", err)
	checkDigest(o, "grid", e.seed, sha(r.stdout))
	rows, instrs, perr := gridWork(r.stdout)
	o.check(perr == nil, "lvsim table: %v", perr)
	batchMetrics(o, setup, r, instrs, rows, o.failed == failedBefore)
	return nil
}

// gridWork parses lvsim's table: the row count, and the useful
// instructions simulated — each surviving map per row plus one
// conventional baseline per benchmark, which the run memo shares.
func gridWork(table []byte) (rows int, instrs float64, err error) {
	benches := map[string]bool{}
	lines := strings.Split(strings.TrimSpace(string(table)), "\n")
	for _, line := range lines[1:] {
		f := strings.Fields(line)
		if len(f) != 7 {
			return 0, 0, fmt.Errorf("row %q", line)
		}
		yf, err := strconv.Atoi(f[6])
		if err != nil {
			return 0, 0, fmt.Errorf("row %q: %v", line, err)
		}
		benches[f[1]] = true
		instrs += float64((gridMaps - yf) * gridInstr)
		rows++
	}
	want := len(sim.AllSchemes()) * len(workload.Names())
	if rows != want {
		return rows, 0, fmt.Errorf("%d rows, want %d", rows, want)
	}
	return rows, instrs + float64(len(benches)*gridInstr), nil
}

func gridTrace(ctx context.Context, e env, o *outcome) error {
	var rows []sim.RowSpec
	for _, s := range sim.AllSchemes() {
		for _, b := range workload.Names() {
			rows = append(rows, sim.RowSpec{Scheme: s, Benchmark: b, MV: gridMV, Maps: gridTraceMaps,
				Seed: e.seed, Instructions: gridTraceInstr, CPU: cpu.DefaultConfig()})
		}
	}
	m := o.metrics

	// Untraced and in-process, as lvsim's local path runs it: the
	// engine's pool over EvalRow, one span per row.
	eng := sim.NewEngine(workers)
	g0 := readGoStats()
	want, spans, err := mapSpans(ctx, eng, len(rows), func(ctx context.Context, i int) (sim.RowResult, error) {
		return eng.EvalRow(ctx, rows[i])
	})
	if err != nil {
		return err
	}
	g0.report(m)
	engineMetrics(m, spans)
	hits, misses := eng.MemoStats()
	m["sim.memo_hit_ratio"] = ratio(float64(hits), float64(hits+misses))

	// Traced: every run of every row rebuilt from the layers' public
	// functions, checked against sim.Run and folded like EvalRow.
	lt := &layerTimer{}
	start := time.Now()
	baselines := map[string]cpu.Result{}
	for i, row := range rows {
		base, ok := baselines[row.Benchmark]
		if !ok {
			base, err = lt.traceRun(ctx, sim.RunSpec{Scheme: sim.Conventional, Benchmark: row.Benchmark, Op: dvfs.Nominal(),
				WorkSeed: row.Seed, Instructions: row.Instructions, CPU: row.CPU}, o)
			if err != nil {
				return err
			}
			baselines[row.Benchmark] = base
		}
		got, err := traceRow(ctx, lt, row, base, o)
		if err != nil {
			return err
		}
		o.check(got == want[i], "%s/%s: traced row %+v, EvalRow %+v", row.Scheme, row.Benchmark, got, want[i])
	}
	traced := time.Since(start) - lt.untraced
	lt.report(m)
	m["trace.overhead_ratio"] = ratio(float64(traced), float64(lt.untraced))
	return nil
}

// traceRow is EvalRow rebuilt from traced runs: each map's run, the
// energy fold against the baseline, and the same aggregation.
func traceRow(ctx context.Context, lt *layerTimer, row sim.RowSpec, base cpu.Result, o *outcome) (sim.RowResult, error) {
	op, err := dvfs.PointAt(row.MV)
	if err != nil {
		return sim.RowResult{}, err
	}
	var cpis, runtimes, l2ks, epis []float64
	yieldFails := 0
	for mi := 0; mi < row.Maps; mi++ {
		r, err := lt.traceRun(ctx, sim.RunSpec{Scheme: row.Scheme, Benchmark: row.Benchmark, Op: op,
			MapSeed: row.Seed + int64(mi), WorkSeed: row.Seed, Instructions: row.Instructions, CPU: row.CPU}, o)
		if isYield(err) {
			yieldFails++
			continue
		}
		if err != nil {
			return sim.RowResult{}, err
		}
		norm, err := lt.foldEPI(r, op, row.Scheme, base)
		if err != nil {
			return sim.RowResult{}, err
		}
		cpis = append(cpis, r.CPI())
		runtimes = append(runtimes, 1e3*r.RuntimeSeconds(op.FreqMHz))
		l2ks = append(l2ks, r.L2PerKiloInstr())
		epis = append(epis, norm)
	}
	res := sim.RowResult{Samples: len(cpis), YieldFails: yieldFails}
	if len(cpis) > 0 {
		res.MeanCPI = stats.Mean(cpis)
		res.MeanRuntimeMS = stats.Mean(runtimes)
		res.MeanL2PerKiloInstr = stats.Mean(l2ks)
		res.MeanNormEPI = stats.Mean(epis)
	}
	return res, nil
}
