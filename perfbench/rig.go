package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bbr"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/energy"
	"repro/internal/faultmap"
	"repro/internal/ffw"
	"repro/internal/inject"
	"repro/internal/program"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/workload"
)

// l1Words is the word count of each 32 KiB L1 (sim's geometry).
const l1Words = 32 * 1024 / 4

// errYield marks a fault map the scheme cannot cover; sim.Run reports
// the same case as sim.ErrYield.
var errYield = errors.New("perfbench: scheme cannot cover fault map")

// buildSpans is the time spent in each constructor layer while
// assembling rigs, plus the BBR link attempts and failures.
type buildSpans struct {
	faultmap, program, link, caches time.Duration
	links, linkFails                int
}

// rig is one run's hardware and program, built the way sim.Run builds
// it, with what is needed to start a fresh instruction stream.
type rig struct {
	ic     core.InstrCache
	dc     core.DataCache
	next   *core.NextLevel
	prof   workload.Profile
	prog   *program.Program
	layout program.Layout
	seed   int64
}

func (r *rig) stream() *workload.Stream {
	return workload.NewStream(r.prof, r.prog, r.layout, r.seed)
}

// span adds the time since start to *d and returns now.
func span(d *time.Duration, start time.Time) time.Time {
	now := time.Now()
	*d += now.Sub(start)
	return now
}

// buildRig assembles spec's rig from the public constructors sim.Run
// calls, in the same order and with the same seeds, timing each
// layer into sp.
func buildRig(spec sim.RunSpec, sp *buildSpans) (*rig, error) {
	prof, err := workload.ByName(spec.Benchmark)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	fmI := drawMap(spec.Op.PfailBit, spec.MapSeed*2+11, faultmap.Generate)
	fmD := drawMap(spec.Op.PfailBit, spec.MapSeed*2+12, faultmap.Generate)
	t = span(&sp.faultmap, t)

	r := &rig{prof: prof, seed: spec.WorkSeed}
	if spec.Scheme == sim.FFWBBR {
		r.prog, err = workload.BuildProgram(prof, spec.WorkSeed, func(p *program.Program) (*program.Program, error) {
			tp, _, terr := bbr.Transform(p, bbr.DefaultTransformConfig())
			return tp, terr
		})
		t = span(&sp.program, t)
		if err != nil {
			return nil, err
		}
		sp.links++
		pl, lerr := bbr.Link(r.prog, fmI, 0)
		t = span(&sp.link, t)
		if errors.Is(lerr, bbr.ErrUnplaceable) {
			sp.linkFails++
			return nil, fmt.Errorf("%w: %v", errYield, lerr)
		}
		if lerr != nil {
			return nil, lerr
		}
		r.layout = pl
	} else {
		r.prog, err = workload.BuildProgram(prof, spec.WorkSeed, nil)
		if err != nil {
			return nil, err
		}
		r.layout = program.NewSequentialLayout(r.prog, 0)
		t = span(&sp.program, t)
	}

	r.next = core.NewNextLevel(core.MemLatencyCycles(spec.Op.FreqMHz))
	r.ic, r.dc, err = buildCaches(spec, fmI, fmD, r.next, sp)
	span(&sp.caches, t)
	if err != nil {
		return nil, err
	}
	return r, nil
}

func drawMap(pfailBit float64, seed int64, gen func(int, float64, *rand.Rand) *faultmap.Map) *faultmap.Map {
	if pfailBit <= 0 {
		return faultmap.New(l1Words)
	}
	return gen(l1Words, pfailBit, rand.New(rand.NewSource(seed)))
}

// buildCaches mirrors sim's scheme table. Multi-bit maps drawn for
// SECDED are charged to the faultmap span.
func buildCaches(spec sim.RunSpec, fmI, fmD *faultmap.Map, next *core.NextLevel, sp *buildSpans) (core.InstrCache, core.DataCache, error) {
	if spec.Inject.Enabled() && spec.Scheme != sim.FFWBBR {
		return nil, nil, fmt.Errorf("injection requires %s", sim.FFWBBR)
	}
	switch spec.Scheme {
	case sim.DefectFree:
		return schemes.NewDefectFree(next), schemes.NewDefectFree(next), nil
	case sim.Conventional:
		if spec.Op.PfailBit > 0 {
			return nil, nil, errYield
		}
		return schemes.NewConventional(next), schemes.NewConventional(next), nil
	case sim.EightT:
		return schemes.New8T(next), schemes.New8T(next), nil
	case sim.SimpleWdis:
		return pair(fmI, fmD, next, schemes.NewSimpleWdis)
	case sim.WilkersonPlus:
		return pair(fmI, fmD, next, schemes.NewWilkersonPlus)
	case sim.WilkersonPlain:
		if !schemes.Coverable(fmI) || !schemes.Coverable(fmD) {
			return nil, nil, errYield
		}
		return pair(fmI, fmD, next, schemes.NewWilkersonPlus)
	case sim.FBA64, sim.FBAPlus:
		entries := 64
		if spec.Scheme == sim.FBAPlus {
			entries = 1024
		}
		return pair(fmI, fmD, next, func(fm *faultmap.Map, n *core.NextLevel) (*schemes.FBA, error) { return schemes.NewFBA(fm, n, entries) })
	case sim.IDC64, sim.IDCPlus:
		entries := 64
		if spec.Scheme == sim.IDCPlus {
			entries = 1024
		}
		return pair(fmI, fmD, next, func(fm *faultmap.Map, n *core.NextLevel) (*schemes.IDC, error) { return schemes.NewIDC(fm, n, entries) })
	case sim.BitFixScheme:
		return pair(fmI, fmD, next, schemes.NewBitFix)
	case sim.SECDEDScheme:
		t := time.Now()
		fmI = drawMap(spec.Op.PfailBit, spec.MapSeed*2+11, faultmap.GenerateSECDED)
		fmD = drawMap(spec.Op.PfailBit, spec.MapSeed*2+12, faultmap.GenerateSECDED)
		d := time.Since(t)
		sp.faultmap += d
		sp.caches -= d
		return pair(fmI, fmD, next, schemes.NewSECDED)
	case sim.FFWBBR:
		ic, err := bbr.NewICache(fmI, next)
		if err != nil {
			return nil, nil, err
		}
		opts := ffw.Options{Placement: spec.Placement, Scatter: spec.Scatter}
		if spec.Inject.Enabled() {
			injI, err := inject.New(l1Words, spec.Op.VoltageMV, spec.Inject.WithSeed(spec.Inject.Seed*2+21))
			if err != nil {
				return nil, nil, err
			}
			injD, err := inject.New(l1Words, spec.Op.VoltageMV, spec.Inject.WithSeed(spec.Inject.Seed*2+22))
			if err != nil {
				return nil, nil, err
			}
			ic.AttachInjector(injI)
			opts.Injector = injD
		}
		dc, err := ffw.New(fmD, next, opts)
		return ic, dc, err
	}
	return nil, nil, fmt.Errorf("unknown scheme %q", spec.Scheme)
}

// l1 is a scheme cache that serves both L1 sides.
type l1 interface {
	core.InstrCache
	core.DataCache
}

// pair builds a scheme's I- and D-cache over their own fault maps.
func pair[C l1](fmI, fmD *faultmap.Map, next *core.NextLevel, mk func(*faultmap.Map, *core.NextLevel) (C, error)) (core.InstrCache, core.DataCache, error) {
	ic, err := mk(fmI, next)
	if err != nil {
		return nil, nil, err
	}
	dc, err := mk(fmD, next)
	if err != nil {
		return nil, nil, err
	}
	return ic, dc, nil
}

// Access kinds in a recorded sequence.
const (
	opFetch uint8 = iota
	opRead
	opWrite
)

// access is one recorded L1 access.
type access struct {
	addr uint64
	op   uint8
}

// recorder captures the interleaved access sequence a run issues. It
// reads no clock: timing comes from replaying the sequence afterwards.
type recorder struct{ seq []access }

type recIC struct {
	core.InstrCache
	r *recorder
}

func (c recIC) Fetch(addr uint64) core.AccessOutcome {
	c.r.seq = append(c.r.seq, access{addr, opFetch})
	return c.InstrCache.Fetch(addr)
}

type recDC struct {
	core.DataCache
	r *recorder
}

func (c recDC) Read(addr uint64) core.AccessOutcome {
	c.r.seq = append(c.r.seq, access{addr, opRead})
	return c.DataCache.Read(addr)
}

func (c recDC) Write(addr uint64) core.AccessOutcome {
	c.r.seq = append(c.r.seq, access{addr, opWrite})
	return c.DataCache.Write(addr)
}

// replayCounts is what a replay observed, in cpu.Result's terms.
type replayCounts struct {
	fetches, fetchMisses, loads, loadMisses, stores uint64
}

// Op sets selecting what a replay issues: the whole interleaved
// sequence, or one side alone so each L1 layer is timed as one loop
// with no per-call clock reads.
const (
	fetchOps = 1 << opFetch
	dataOps  = 1<<opRead | 1<<opWrite
	allOps   = fetchOps | dataOps
)

// replay issues the accesses of seq whose kind is in ops, in recorded
// order, and counts them with their L1 misses (a store never misses:
// the L1D does not allocate on a write).
func replay(seq []access, ic core.InstrCache, dc core.DataCache, ops uint8) replayCounts {
	var c replayCounts
	for _, a := range seq {
		if ops&(1<<a.op) == 0 {
			continue
		}
		switch a.op {
		case opFetch:
			c.fetches++
			if !ic.Fetch(a.addr).Hit {
				c.fetchMisses++
			}
		case opRead:
			c.loads++
			if !dc.Read(a.addr).Hit {
				c.loadMisses++
			}
		default:
			c.stores++
			dc.Write(a.addr)
		}
	}
	return c
}

// drain pulls n instructions from s and returns a value derived from
// them, so the loop cannot be elided.
func drain(s *workload.Stream, n uint64) uint64 {
	var x uint64
	for i := uint64(0); i < n; i++ {
		in := s.Next()
		x ^= in.PC + in.MemAddr
	}
	return x
}

// layerTimer accumulates per-layer time and counts over traced runs.
type layerTimer struct {
	build                   buildSpans
	attempts, runs          int
	executed, useful        uint64
	stream, cpuRun, l1Inter time.Duration
	untraced                time.Duration
	bbrT, ffwT, schemesT    time.Duration
	bbrN, ffwN, schemesN    uint64
	hits, lookups           uint64
	windowMiss, ffwAccesses uint64
	l2Reads, memReads       uint64
	fold                    time.Duration
	folds                   int
	sink                    uint64
	seq                     []access
}

// traceRun executes spec four ways: untraced through sim.RunContext
// (the reference result and time), on a rig built here with per-layer
// spans (timed cpu loop), with recording decorators, and as replays of
// the recorded sequence. It fails the run in o if the traced rig's
// result or the replay's counts differ from the reference.
func (lt *layerTimer) traceRun(ctx context.Context, spec sim.RunSpec, o *outcome) (cpu.Result, error) {
	lt.attempts++
	t := time.Now()
	ref, refErr := sim.RunContext(ctx, spec)
	lt.untraced += time.Since(t)

	a, err := buildRig(spec, &lt.build)
	if errors.Is(err, errYield) {
		o.check(errors.Is(refErr, sim.ErrYield), "%s/%s map %d: traced rig yields, sim.Run gave %v", spec.Scheme, spec.Benchmark, spec.MapSeed, refErr)
		return cpu.Result{}, err
	}
	if err != nil {
		return cpu.Result{}, err
	}
	if refErr != nil {
		o.fail("%s/%s: sim.Run failed where the traced rig built: %v", spec.Scheme, spec.Benchmark, refErr)
		return cpu.Result{}, refErr
	}
	lt.runs++
	s := a.stream()
	t = time.Now()
	res, err := cpu.RunContext(ctx, spec.CPU, s, a.ic, a.dc, a.next, spec.Instructions)
	lt.cpuRun += time.Since(t)
	if err != nil {
		return res, err
	}
	o.check(res == ref, "%s/%s map %d: traced rig result differs from sim.Run", spec.Scheme, spec.Benchmark, spec.MapSeed)
	lt.executed += res.Executed
	lt.useful += res.Instructions

	var discard buildSpans
	b, err := buildRig(spec, &discard)
	if err != nil {
		return res, err
	}
	rec := &recorder{seq: lt.seq[:0]}
	if _, err := cpu.RunContext(ctx, spec.CPU, b.stream(), recIC{b.ic, rec}, recDC{b.dc, rec}, b.next, spec.Instructions); err != nil {
		return res, err
	}
	lt.seq = rec.seq

	fresh := b.stream()
	t = time.Now()
	lt.sink ^= drain(fresh, res.Executed)
	lt.stream += time.Since(t)

	c, err := buildRig(spec, &discard)
	if err != nil {
		return res, err
	}
	t = time.Now()
	got := replay(rec.seq, c.ic, c.dc, allOps)
	lt.l1Inter += time.Since(t)
	want := replayCounts{res.Executed, res.FetchMisses, res.Loads, res.LoadMisses, res.Stores}
	o.check(got == want && c.next.DemandReads() == res.L2Reads && c.next.MemReads() == res.MemReads,
		"%s/%s map %d: replay counts %+v L2 %d/%d, live %+v L2 %d/%d", spec.Scheme, spec.Benchmark, spec.MapSeed,
		got, c.next.DemandReads(), c.next.MemReads(), want, res.L2Reads, res.MemReads)
	lt.hits += got.fetches - got.fetchMisses + got.loads - got.loadMisses
	lt.lookups += got.fetches + got.loads
	lt.l2Reads += res.L2Reads
	lt.memReads += res.MemReads
	if f, ok := c.dc.(*ffw.Cache); ok {
		st := f.Stats()
		lt.windowMiss += st.WindowMiss
		lt.ffwAccesses += st.Reads + st.Writes
	}

	d, err := buildRig(spec, &discard)
	if err != nil {
		return res, err
	}
	dI, nI := lt.l1Layer(spec.Scheme, true)
	dD, nD := lt.l1Layer(spec.Scheme, false)
	t = time.Now()
	fetches := replay(rec.seq, d.ic, d.dc, fetchOps)
	t = span(dI, t)
	data := replay(rec.seq, d.ic, d.dc, dataOps)
	span(dD, t)
	*nI += fetches.fetches
	*nD += data.loads + data.stores
	return res, nil
}

// l1Layer picks the time and access accumulators for a scheme's I- or
// D-side replay: BBR and FFW for the paper's scheme, the schemes layer
// for the rest.
func (lt *layerTimer) l1Layer(s sim.Scheme, instr bool) (*time.Duration, *uint64) {
	switch {
	case s == sim.FFWBBR && instr:
		return &lt.bbrT, &lt.bbrN
	case s == sim.FFWBBR:
		return &lt.ffwT, &lt.ffwN
	}
	return &lt.schemesT, &lt.schemesN
}

// fold times the energy model's normalisation of one run.
func (lt *layerTimer) foldEPI(r cpu.Result, op dvfs.OperatingPoint, s sim.Scheme, baseline cpu.Result) (float64, error) {
	t := time.Now()
	v, err := energy.DefaultModel().Normalized(r, op, sim.L1StaticFactor(s), baseline)
	lt.fold += time.Since(t)
	lt.folds++
	return v, err
}

// report writes the layer metrics of the traced runs into m.
func (lt *layerTimer) report(m map[string]float64) {
	ns := func(d time.Duration, n uint64) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }
	us := func(d time.Duration, n int) float64 { return ratio(float64(d.Nanoseconds())/1e3, float64(n)) }
	m["workload.ns_per_instr"] = ns(lt.stream, lt.executed)
	m["bbr.ns_per_fetch"] = ns(lt.bbrT, lt.bbrN)
	m["ffw.ns_per_access"] = ns(lt.ffwT, lt.ffwN)
	m["schemes.ns_per_access"] = ns(lt.schemesT, lt.schemesN)
	self := lt.cpuRun - lt.stream - lt.l1Inter
	m["cpu.self_ns_per_instr"] = ns(self, lt.executed)
	m["faultmap.generate_us"] = us(lt.build.faultmap, lt.attempts)
	m["program.build_us"] = us(lt.build.program, lt.attempts)
	m["bbr.link_us"] = us(lt.build.link, lt.build.links)
	m["cache.build_us"] = us(lt.build.caches, lt.runs)
	m["energy.fold_us"] = us(lt.fold, lt.folds)
	m["bbr.link_fail_ratio"] = ratio(float64(lt.build.linkFails), float64(lt.build.links))
	m["cache.l1_hit_ratio"] = ratio(float64(lt.hits), float64(lt.lookups))
	m["ffw.window_miss_ratio"] = ratio(float64(lt.windowMiss), float64(lt.ffwAccesses))
	m["core.l2_reads"] = float64(lt.l2Reads)
	m["core.mem_reads"] = float64(lt.memReads)
	m["cpu.instrs"] = float64(lt.useful)
	// The layer self-times of a run: its rig build, stream, the two L1
	// replays and the cpu loop's remainder. Their sum against the
	// untraced sim.Run time is the attribution check (NOTES.md states
	// the tolerance).
	b := lt.build
	sum := b.faultmap + b.program + b.link + b.caches + lt.stream + lt.bbrT + lt.ffwT + lt.schemesT + self
	m["trace.selftime_sum_ratio"] = ratio(float64(sum), float64(lt.untraced))
}
