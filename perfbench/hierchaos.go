package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/bbr"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/event"
	"repro/internal/faultmap"
	"repro/internal/ffw"
	"repro/internal/hier"
	"repro/internal/inject"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The hierchaos workload: two FFW+BBR cores on contrasting footprints
// sharing one L2, starting at 400 mV under runtime injection, each
// steered by its own back-off controller, at lvchaos's default epochs.
const (
	hierCores     = 2
	hierBenches   = "429.mcf,crc32"
	hierStartMV   = 400
	hierIntensity = 1
	hierEpochs    = 20
	hierEpochN    = 100_000
	hierDies      = 16
	// The traced run and the dist comparison use the first dies of the
	// same campaign grid.
	hierTraceDies = 4
	// hierDieStride separates the die seeds of consecutive workload
	// seeds, so seeds never share a die.
	hierDieStride = 1000
)

func hierFirstDie(seed int64) int64 { return 1 + (seed-1)*hierDieStride }

func hierArgs(seed int64, dies, shards int) []string {
	s := strconv.FormatInt(seed, 10)
	return []string{"-hierarchy", "-cores", strconv.Itoa(hierCores), "-bench", hierBenches,
		"-start", strconv.Itoa(hierStartMV), "-intensity", strconv.Itoa(hierIntensity),
		"-epochs", strconv.Itoa(hierEpochs), "-epoch-n", strconv.Itoa(hierEpochN),
		"-dies", strconv.Itoa(dies), "-die", strconv.FormatInt(hierFirstDie(seed), 10),
		"-seed", s, "-iseed", s, "-shards", strconv.Itoa(shards), "-workers", strconv.Itoa(workers)}
}

func hierE2E(ctx context.Context, e env, o *outcome) error {
	lvchaos := e.cmd("lvchaos")
	setup := timeSetup(ctx, o, lvchaos, append(hierArgs(e.seed, 1, workers), "-epochs", "1", "-epoch-n", "1000")...)

	failedBefore := o.failed
	r, err := runMeasured(ctx, lvchaos, hierArgs(e.seed, hierDies, workers)...)
	o.check(err == nil, "lvchaos: %v", err)
	checkDigest(o, "hierchaos", e.seed, sha(r.stdout))
	campaigns, rows := hierWork(r.stdout)
	o.check(campaigns == hierDies && rows == hierDies*hierEpochs*hierCores,
		"lvchaos report: %d campaigns, %d epoch rows", campaigns, rows)
	batchMetrics(o, setup, r, float64(rows*hierEpochN), campaigns, o.failed == failedBefore)
	return nil
}

// hierWork counts the campaigns and the per-core epoch rows of an
// lvchaos -hierarchy report; each row is hierEpochN useful
// instructions.
func hierWork(report []byte) (campaigns, rows int) {
	for _, line := range strings.Split(string(report), "\n") {
		if strings.HasPrefix(line, "== ") {
			campaigns++
			continue
		}
		f := strings.Fields(line)
		if len(f) != 11 {
			continue
		}
		if _, err := strconv.Atoi(f[0]); err == nil {
			rows++
		}
	}
	return campaigns, rows
}

// hierSpecs builds the campaign grid exactly as lvchaos -hierarchy
// does for hierArgs.
func hierSpecs(seed int64, dies int) []sim.HierChaosSpec {
	benches := strings.Split(hierBenches, ",")
	specs := make([]sim.HierChaosSpec, dies)
	for d := range specs {
		hs := sim.HierChaosSpec{
			Inject: inject.Params{Seed: seed, Intensity: hierIntensity},
			Epochs: hierEpochs, EpochInstructions: hierEpochN,
			CPU: cpu.DefaultConfig(), Backoff: dvfs.BackoffConfig{UpThreshold: 1, StableEpochs: 3},
		}
		for i := 0; i < hierCores; i++ {
			hs.Cores = append(hs.Cores, sim.HierChaosCoreSpec{
				Benchmark: benches[i%len(benches)],
				DieSeed:   hierFirstDie(seed) + int64(d*hierCores+i),
				WorkSeed:  seed + int64(i),
				StartMV:   hierStartMV,
			})
		}
		specs[d] = hs
	}
	return specs
}

func hierTrace(ctx context.Context, e env, o *outcome) error {
	specs := hierSpecs(e.seed, hierTraceDies)
	m := o.metrics

	// Untraced, in-process, on the engine's pool like lvchaos's local
	// path.
	eng := sim.NewEngine(workers)
	g0 := readGoStats()
	want, spans, err := mapSpans(ctx, eng, len(specs), func(ctx context.Context, i int) (*sim.HierChaosResult, error) {
		return sim.RunHierChaos(ctx, specs[i])
	})
	if err != nil {
		return err
	}
	g0.report(m)
	engineMetrics(m, spans)
	var host time.Duration
	for _, s := range spans {
		host += s.end.Sub(s.start)
	}

	// Traced: each campaign rebuilt from hier's and the caches' public
	// functions, recording every core segment's accesses for replay.
	ht := &hierTimer{}
	start := time.Now()
	var l2 hier.L2Stats
	var executed uint64
	for i, spec := range specs {
		got, events, err := ht.campaign(ctx, spec, o)
		if err != nil {
			return err
		}
		gj, _ := json.Marshal(got) // results marshal by construction
		wj, _ := json.Marshal(want[i])
		o.check(string(gj) == string(wj), "campaign %d: traced replica differs from sim.RunHierChaos", i)
		ht.events += events
		l2 = l2.Add(got.L2)
		for _, ep := range got.Epochs {
			for _, c := range ep.Cores {
				executed += c.Result.Executed
				ht.useful += c.Result.Instructions
				m["inject.recovery_cycles"] += c.Result.RecoveryCycles
			}
		}
		for _, c := range got.Cores {
			m["inject.detected"] += float64(c.Totals.Detected)
			m["dvfs.step_ups"] += float64(c.StepUps)
			m["dvfs.step_downs"] += float64(c.StepDowns)
		}
	}
	traced := time.Since(start)
	kernel := kernelTime(ht.events, hierCores+2)

	lt := &ht.layerTimer
	lt.l2Reads, lt.memReads = l2.Reads, l2.DramReads
	lt.report(m)
	m["hier.host_ns_per_instr"] = ratio(float64(host.Nanoseconds()), float64(executed))
	m["event.events"] = float64(ht.events)
	m["event.ns_per_event"] = ratio(float64(kernel.Nanoseconds()), float64(ht.events))
	m["hier.l2_reads"] = float64(l2.Reads)
	m["hier.l2_merges"] = float64(l2.Merges)
	m["hier.l2_wait_cy_per_read"] = l2.MeanReadWaitCycles(dvfs.Nominal())
	// The coroutine path's own cost: host time less what the replays,
	// the stream, the kernel and the rig builds account for.
	b := lt.build
	self := host - lt.stream - lt.bbrT - lt.ffwT - kernel - (b.faultmap + b.program + b.link + b.caches)
	m["cpu.self_ns_per_instr"] = ratio(float64(self.Nanoseconds()), float64(executed))
	m["trace.overhead_ratio"] = ratio(traced.Seconds(), host.Seconds())

	return distOverhead(ctx, e, o)
}

// distOverhead runs the traced campaign grid through lvchaos sharded
// and in-process: the wall-time difference is the dist layer's cost,
// and the two reports must be byte-identical.
func distOverhead(ctx context.Context, e env, o *outcome) error {
	lvchaos := e.cmd("lvchaos")
	sharded, err := runMeasured(ctx, lvchaos, hierArgs(e.seed, hierTraceDies, workers)...)
	o.check(err == nil, "lvchaos sharded: %v", err)
	local, err := runMeasured(ctx, lvchaos, hierArgs(e.seed, hierTraceDies, 0)...)
	o.check(err == nil, "lvchaos in-process: %v", err)
	o.check(string(sharded.stdout) == string(local.stdout), "lvchaos report differs between -shards %d and 0", workers)
	o.metrics["dist.overhead_s"] = sharded.wall.Seconds() - local.wall.Seconds()
	o.metrics["dist.jobs"] = hierTraceDies
	return nil
}

// kernelTime times an isolated event engine firing events no-op
// events spread over comps self-rescheduling components: the kernel's
// cost at the campaign's event count, without the core model.
func kernelTime(events uint64, comps int) time.Duration {
	eng := event.NewEngine()
	left := events
	for c := 0; c < comps; c++ {
		period := event.Time(1000 + 7*c)
		var fire event.Handler
		fire = func(at event.Time) error {
			if left > 0 {
				left--
				eng.Schedule(at+period, fire)
			}
			return nil
		}
		eng.Schedule(event.Time(c), fire)
	}
	start := time.Now()
	_ = eng.Run() // the handlers never fail
	return time.Since(start)
}

// hierTimer is a layerTimer for hierarchy campaigns, plus the event
// count.
type hierTimer struct {
	layerTimer
	events uint64
}

// hierCore is one core's live campaign state, as sim.RunHierChaos
// keeps it.
type hierCore struct {
	prof             workload.Profile
	prog             *program.Program
	seriesI, seriesD *faultmap.Series
	backoff          *dvfs.Backoff
	salt             int64
	seg              int
	ic               *bbr.ICache
	dc               *ffw.Cache
	prev, totals     inject.Stats
	epochs           []sim.ChaosEpoch
	// The segment being recorded: its rig factory, accesses and the
	// live L1 misses to reproduce.
	build                   func(*core.NextLevel, *buildSpans) (*bbr.ICache, *ffw.Cache, *workload.Stream, error)
	segOp                   dvfs.OperatingPoint
	rec                     recorder
	fetchMisses, loadMisses uint64
}

// campaign runs spec the way sim.RunHierChaos does, built from public
// functions with per-layer spans, and replays each finished core
// segment against a fresh rig. It returns the result and the events
// the hierarchy fired.
func (ht *hierTimer) campaign(ctx context.Context, spec sim.HierChaosSpec, o *outcome) (*sim.HierChaosResult, uint64, error) {
	l2op := dvfs.Nominal()
	h, err := hier.New(hier.Config{Cores: len(spec.Cores), L2: hier.DefaultL2Params(l2op)})
	if err != nil {
		return nil, 0, err
	}
	sp := &ht.build
	states := make([]*hierCore, len(spec.Cores))
	rebuild := func(i int) error {
		st, cs := states[i], spec.Cores[i]
		if st.build != nil {
			ht.replaySegment(st, o)
		}
		for {
			op := st.backoff.Current()
			seg, salt := st.seg, st.salt
			build := func(next *core.NextLevel, sp *buildSpans) (*bbr.ICache, *ffw.Cache, *workload.Stream, error) {
				return chaosRig(spec.Inject, cs.WorkSeed, salt, st.prof, st.prog, op, st.seriesI, st.seriesD, seg, next, sp)
			}
			ht.attempts++
			err := h.SetRig(i, op, spec.CPU, func(next *core.NextLevel) (core.InstrCache, core.DataCache, *workload.Stream, error) {
				ic, dc, stream, berr := build(next, sp)
				if berr != nil {
					return nil, nil, nil, berr
				}
				st.ic, st.dc = ic, dc
				st.rec.seq = st.rec.seq[:0]
				return recIC{ic, &st.rec}, recDC{dc, &st.rec}, stream, nil
			})
			if err == nil {
				ht.runs++
				st.build, st.segOp = build, op
				st.seg++
				st.prev = inject.Stats{}
				return nil
			}
			if !isYield(err) {
				return err
			}
			if !st.backoff.ForceUp() {
				return fmt.Errorf("core %d die %d uncoverable even at %d mV: %w", i, cs.DieSeed, op.VoltageMV, err)
			}
		}
	}
	for i, cs := range spec.Cores {
		prof, err := workload.ByName(cs.Benchmark)
		if err != nil {
			return nil, 0, err
		}
		backoff, err := dvfs.NewBackoff(spec.Backoff, cs.StartMV)
		if err != nil {
			return nil, 0, err
		}
		t := time.Now()
		prog, err := workload.BuildProgram(prof, cs.WorkSeed, func(p *program.Program) (*program.Program, error) {
			tp, _, terr := bbr.Transform(p, bbr.DefaultTransformConfig())
			return tp, terr
		})
		t = span(&sp.program, t)
		if err != nil {
			return nil, 0, err
		}
		st := &hierCore{prof: prof, prog: prog, backoff: backoff, salt: int64(i) * 1_000_003,
			seriesI: faultmap.NewSeries(l1Words, rand.New(rand.NewSource(cs.DieSeed*2+11))),
			seriesD: faultmap.NewSeries(l1Words, rand.New(rand.NewSource(cs.DieSeed*2+12)))}
		span(&sp.faultmap, t)
		states[i] = st
		if err := rebuild(i); err != nil {
			return nil, 0, err
		}
	}

	res := &sim.HierChaosResult{Spec: spec}
	var prevL2 hier.L2Stats
	for e := 0; e < spec.Epochs; e++ {
		results, err := h.RunEpoch(ctx, spec.EpochInstructions)
		if err != nil {
			return nil, 0, err
		}
		l2now := h.L2Stats()
		ep := sim.HierChaosEpoch{Index: e, L2: l2now.Sub(prevL2)}
		prevL2 = l2now
		for i, st := range states {
			op := st.backoff.Current()
			r := results[i]
			st.fetchMisses += r.FetchMisses
			st.loadMisses += r.LoadMisses
			cum := st.ic.FaultStats()
			cum.Add(st.dc.FaultStats())
			delta := cum.Sub(st.prev)
			st.prev = cum
			rate := 1000 * float64(delta.Detected) / float64(r.Instructions)
			action := st.backoff.Observe(rate)
			ep.Cores = append(ep.Cores, sim.HierChaosCoreEpoch{Core: i, MV: op.VoltageMV, Result: r, Faults: delta, Rate: rate, Action: action})
			st.totals.Add(delta)
			st.epochs = append(st.epochs, sim.ChaosEpoch{Op: op, Result: r})
			if action != dvfs.Hold && e < spec.Epochs-1 {
				if err := rebuild(i); err != nil {
					return nil, 0, err
				}
			}
		}
		res.Epochs = append(res.Epochs, ep)
	}
	for i, st := range states {
		ht.replaySegment(st, o)
		res.Cores = append(res.Cores, sim.HierChaosCoreSummary{
			Core: i, Benchmark: spec.Cores[i].Benchmark,
			FinalMV: st.backoff.Current().VoltageMV,
			StepUps: st.backoff.StepUps(), StepDowns: st.backoff.StepDowns(),
			Totals: st.totals, Residency: residency(st.epochs),
		})
	}
	res.L2 = h.L2Stats()
	return res, h.Events(), nil
}

// replaySegment times a finished core segment's recorded accesses
// against a fresh rig over an inline next level, checks that they
// reproduce the live L1 misses, and drains a fresh stream of the same
// length.
func (ht *hierTimer) replaySegment(st *hierCore, o *outcome) {
	lt := &ht.layerTimer
	var discard buildSpans
	ic, dc, stream, err := st.build(core.NewNextLevel(core.MemLatencyCycles(st.segOp.FreqMHz)), &discard)
	o.check(err == nil, "segment rebuild: %v", err)
	if err != nil {
		return
	}
	t := time.Now()
	f := replay(st.rec.seq, ic, dc, fetchOps)
	t = span(&lt.bbrT, t)
	d := replay(st.rec.seq, ic, dc, dataOps)
	t = span(&lt.ffwT, t)
	lt.sink ^= drain(stream, f.fetches)
	span(&lt.stream, t)
	o.check(f.fetchMisses == st.fetchMisses && d.loadMisses == st.loadMisses, "segment replay misses %d/%d, live %d/%d",
		f.fetchMisses, d.loadMisses, st.fetchMisses, st.loadMisses)
	lt.bbrN += f.fetches
	lt.ffwN += d.loads + d.stores
	lt.executed += f.fetches
	lt.lookups += f.fetches + d.loads
	lt.hits += f.fetches - f.fetchMisses + d.loads - d.loadMisses
	st.fetchMisses, st.loadMisses = 0, 0
	s := dc.Stats()
	lt.windowMiss += s.WindowMiss
	lt.ffwAccesses += s.Reads + s.Writes
	st.build = nil
}

// chaosRig is sim's per-segment FFW+BBR rig for a campaign core: the
// die's nested maps at op, the BBR link, and injectors seeded per core
// and segment.
func chaosRig(inj inject.Params, workSeed, coreSalt int64, prof workload.Profile, prog *program.Program,
	op dvfs.OperatingPoint, seriesI, seriesD *faultmap.Series, seg int, next *core.NextLevel, sp *buildSpans) (*bbr.ICache, *ffw.Cache, *workload.Stream, error) {
	t := time.Now()
	fmI, fmD := seriesI.MapAt(op.PfailBit), seriesD.MapAt(op.PfailBit)
	t = span(&sp.faultmap, t)
	sp.links++
	layout, err := bbr.Link(prog, fmI, 0)
	t = span(&sp.link, t)
	if errors.Is(err, bbr.ErrUnplaceable) {
		sp.linkFails++
		return nil, nil, nil, fmt.Errorf("%w: %v", errYield, err)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	defer span(&sp.caches, t)
	ic, err := bbr.NewICache(fmI, next)
	if err != nil {
		return nil, nil, nil, err
	}
	opts := ffw.Options{}
	if inj.Enabled() {
		base := inj.Seed + coreSalt + int64(seg)*7919
		injI, err := inject.New(l1Words, op.VoltageMV, inj.WithSeed(base*2+21))
		if err != nil {
			return nil, nil, nil, err
		}
		injD, err := inject.New(l1Words, op.VoltageMV, inj.WithSeed(base*2+22))
		if err != nil {
			return nil, nil, nil, err
		}
		ic.AttachInjector(injI)
		opts.Injector = injD
	}
	dc, err := ffw.New(fmD, next, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	return ic, dc, workload.NewStream(prof, prog, layout, workSeed), nil
}

// residency folds epochs into the voltage histogram, highest voltage
// first, as sim's campaigns report it.
func residency(epochs []sim.ChaosEpoch) []sim.Residency {
	byMV := map[int]*sim.Residency{}
	var total uint64
	for _, ep := range epochs {
		r := byMV[ep.Op.VoltageMV]
		if r == nil {
			r = &sim.Residency{VoltageMV: ep.Op.VoltageMV}
			byMV[ep.Op.VoltageMV] = r
		}
		r.Epochs++
		r.Instructions += ep.Result.Instructions
		total += ep.Result.Instructions
	}
	var out []sim.Residency
	for _, p := range dvfs.OperatingPoints() { // descending voltage
		if r := byMV[p.VoltageMV]; r != nil {
			if total > 0 {
				r.Frac = float64(r.Instructions) / float64(total)
			}
			out = append(out, *r)
		}
	}
	return out
}
