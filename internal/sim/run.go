// Package sim is the experiment driver: it wires fault maps, schemes,
// workloads, the timing model and the energy model into the paper's
// evaluation — one Run per (scheme × benchmark × operating point × fault
// map), Monte Carlo aggregation with the paper's 95%/5% stopping rule,
// and one driver per table/figure (experiments.go, analysis.go).
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/bbr"
	"repro/internal/cacti"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/faultmap"
	"repro/internal/ffw"
	"repro/internal/inject"
	"repro/internal/program"
	"repro/internal/schemes"
	"repro/internal/workload"
)

// Scheme identifies one evaluated cache configuration (both L1s).
type Scheme string

// The evaluation set. FFWBBR is the paper's proposal: FFW on the data
// cache combined with BBR on the instruction cache.
const (
	DefectFree    Scheme = "DefectFree"
	Conventional  Scheme = "Conventional"
	EightT        Scheme = "8T"
	SimpleWdis    Scheme = "Simple-wdis"
	WilkersonPlus Scheme = "Wilkerson+"
	FBA64         Scheme = "FBA"
	FBAPlus       Scheme = "FBA+"
	IDC64         Scheme = "IDC"
	IDCPlus       Scheme = "IDC+"
	FFWBBR        Scheme = "FFW+BBR"
	// SECDEDScheme is the extension baseline: per-word (39,32) ECC — the
	// related-work class the paper argues is overwhelmed by multi-bit
	// errors at deep voltage. Not part of the paper's evaluated set.
	SECDEDScheme Scheme = "SECDED"
	// BitFixScheme is Wilkerson's second mechanism [4], adapted to word
	// granularity: a quarter of the cache repairs the rest. Extension
	// baseline (the paper names it in §III but does not evaluate it).
	BitFixScheme Scheme = "Bit-fix"
	// WilkersonPlain is word-disable without the simple-wdis supplement:
	// it refuses (ErrYield) any fault map with a dead logical slot. The
	// paper's Fig. 10 note — "Wilkerson's word disable cannot achieve
	// 99.9% chip yield below 480mV" — shows up as yield failures here.
	WilkersonPlain Scheme = "Wilkerson"
)

// EvalSchemes returns the schemes of Figures 10–12, in the paper's
// presentation order.
func EvalSchemes() []Scheme {
	return []Scheme{EightT, SimpleWdis, WilkersonPlus, FBAPlus, IDCPlus, FFWBBR}
}

// AllSchemes returns every constructible scheme, including the SECDED
// extension baseline.
func AllSchemes() []Scheme {
	return []Scheme{DefectFree, Conventional, EightT, SimpleWdis, WilkersonPlus, FBA64, FBAPlus, IDC64, IDCPlus, FFWBBR, SECDEDScheme, BitFixScheme, WilkersonPlain}
}

// Config scales the Monte Carlo experiment.
type Config struct {
	// Instructions is the useful-instruction count per run.
	Instructions uint64
	// MinMaps and MaxMaps bound the Monte Carlo fault maps per cell;
	// sampling stops early once Margin is reached (the paper's 95% CI /
	// 5% margin-of-error rule, up to 1000 maps).
	MinMaps, MaxMaps int
	// Margin is the relative 95%-CI half-width target (0 disables early
	// stopping).
	Margin float64
	// Seed derives all randomness.
	Seed int64
	// CPU is the core configuration.
	CPU cpu.Config
}

// QuickConfig is sized for unit tests and benchmarks.
func QuickConfig() Config {
	return Config{Instructions: 60_000, MinMaps: 2, MaxMaps: 3, Margin: 0, Seed: 1, CPU: cpu.DefaultConfig()}
}

// ReportConfig is sized for cmd/lvreport: long enough runs for stable
// cache behaviour, enough maps for the stopping rule to engage.
func ReportConfig() Config {
	return Config{Instructions: 400_000, MinMaps: 5, MaxMaps: 40, Margin: 0.05, Seed: 1, CPU: cpu.DefaultConfig()}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Instructions == 0:
		return errors.New("sim: zero instructions")
	case c.MinMaps < 1 || c.MaxMaps < c.MinMaps:
		return fmt.Errorf("sim: map bounds [%d,%d] invalid", c.MinMaps, c.MaxMaps)
	case c.Margin < 0:
		return errors.New("sim: negative margin")
	}
	return nil
}

// RunSpec pins one simulation.
type RunSpec struct {
	Scheme       Scheme
	Benchmark    string
	Op           dvfs.OperatingPoint
	MapSeed      int64 // fault-map randomness (the Monte Carlo variable)
	WorkSeed     int64 // workload randomness (fixed across schemes for pairing)
	Instructions uint64
	CPU          cpu.Config
	// Placement overrides FFW's window policy (ablation); zero value is
	// the paper's centered policy.
	Placement ffw.WindowPlacement
	// Scatter enables FFW's non-contiguous stored-pattern extension
	// (ablation; not the paper's mechanism).
	Scatter bool
	// Inject configures the runtime fault-injection layer (package
	// inject). The zero value — injection disabled — reproduces the
	// static-fault-map behaviour bit for bit. Only FFW+BBR carries the
	// detection/recovery machinery, so injection on any other scheme is
	// rejected.
	Inject inject.Params
}

// memoKey returns the spec with every field the run cannot read set to
// its zero value, so specs that must simulate identically share one
// memo entry. MapSeed goes for the schemes that never read a fault map
// and for every scheme when the operating point draws empty maps;
// Placement and Scatter go for every scheme but FFW+BBR. Inject is
// kept, so injection on a scheme without recovery still fails.
func (s RunSpec) memoKey() RunSpec {
	if mapFree(s.Scheme) || s.Op.PfailBit <= 0 {
		s.MapSeed = 0
	}
	if s.Scheme != FFWBBR {
		s.Placement, s.Scatter = ffw.PlacementCentered, false
	}
	return s
}

// mapFree reports whether a scheme's caches ignore fault maps: the ideal
// cache, and the conventional and 8T caches, which are fault-free by
// construction wherever they operate.
func mapFree(s Scheme) bool {
	return s == DefectFree || s == Conventional || s == EightT
}

// ErrYield is wrapped when a scheme cannot guarantee correct operation on
// the drawn fault map (a chip-yield event, e.g. BBR finding no chunk for
// some block).
var ErrYield = errors.New("sim: scheme cannot cover fault map")

const l1Words = 32 * 1024 / 4

// Run executes one simulation and returns the timing result.
func Run(spec RunSpec) (cpu.Result, error) {
	return RunContext(context.Background(), spec)
}

// RunContext is Run with cooperative cancellation (per-job timeouts in
// campaign drivers); the context is threaded into the instruction loop.
func RunContext(ctx context.Context, spec RunSpec) (cpu.Result, error) {
	return runOn(ctx, spec, core.NewNextLevel(core.MemLatencyCycles(spec.Op.FreqMHz)))
}

// runOn is RunContext over a caller-provided next level, which must be
// in the state NewNextLevel builds for the spec's memory latency.
func runOn(ctx context.Context, spec RunSpec, next *core.NextLevel) (cpu.Result, error) {
	ic, dc, stream, err := buildRig(spec, next)
	if err != nil {
		return cpu.Result{}, err
	}
	return cpu.RunContext(ctx, spec.CPU, stream, ic, dc, next, spec.Instructions)
}

// buildRig draws the fault maps and assembles the spec's program,
// layout, scheme caches and instruction stream over the provided next
// level. It is the single construction path shared by the trace-driven
// RunContext (inline per-core L2) and the event-driven hierarchy (a
// port-backed next level) — which is how fault injection, BBR linking
// and frame-disable semantics carry over to multicore runs unchanged.
func buildRig(spec RunSpec, next *core.NextLevel) (core.InstrCache, core.DataCache, *workload.Stream, error) {
	prof, err := workload.ByName(spec.Benchmark)
	if err != nil {
		return nil, nil, nil, err
	}
	if spec.Instructions == 0 {
		return nil, nil, nil, errors.New("sim: zero instructions")
	}

	// The map-free schemes read no fault map, and SECDED draws its own
	// multi-bit maps from the same seeds.
	var fmI, fmD *faultmap.Map
	if !mapFree(spec.Scheme) && spec.Scheme != SECDEDScheme {
		fmI = drawMap(spec.Op.PfailBit, spec.MapSeed*2+11)
		fmD = drawMap(spec.Op.PfailBit, spec.MapSeed*2+12)
	}

	// Program and layout. Only BBR transforms and relinks; every other
	// scheme runs the conventional dense layout.
	var prog *program.Program
	var layout program.Layout
	if spec.Scheme == FFWBBR {
		prog, err = workload.BuildProgram(prof, spec.WorkSeed, func(p *program.Program) (*program.Program, error) {
			t, _, terr := bbr.Transform(p, bbr.DefaultTransformConfig())
			return t, terr
		})
		if err != nil {
			return nil, nil, nil, err
		}
		pl, lerr := bbr.Link(prog, fmI, 0)
		if lerr != nil {
			if errors.Is(lerr, bbr.ErrUnplaceable) {
				return nil, nil, nil, fmt.Errorf("%w: %v", ErrYield, lerr)
			}
			return nil, nil, nil, lerr
		}
		layout = pl
	} else {
		prog, err = workload.BuildProgram(prof, spec.WorkSeed, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		layout = program.NewSequentialLayout(prog, 0)
	}

	ic, dc, err := buildCaches(spec, fmI, fmD, next)
	if err != nil {
		return nil, nil, nil, err
	}
	return ic, dc, workload.NewStream(prof, prog, layout, spec.WorkSeed), nil
}

func drawMap(pfailBit float64, seed int64) *faultmap.Map {
	if pfailBit <= 0 {
		return faultmap.New(l1Words)
	}
	return faultmap.Generate(l1Words, pfailBit, rand.New(rand.NewSource(seed)))
}

func drawSECDEDMap(pfailBit float64, seed int64) *faultmap.Map {
	if pfailBit <= 0 {
		return faultmap.New(l1Words)
	}
	return faultmap.GenerateSECDED(l1Words, pfailBit, rand.New(rand.NewSource(seed)))
}

// buildCaches constructs the scheme's instruction and data caches. The
// map-free and SECDED schemes ignore fmI and fmD, which may be nil.
func buildCaches(spec RunSpec, fmI, fmD *faultmap.Map, next *core.NextLevel) (core.InstrCache, core.DataCache, error) {
	if spec.Inject.Enabled() && spec.Scheme != FFWBBR {
		return nil, nil, fmt.Errorf("sim: runtime fault injection requires scheme %q (got %q)", FFWBBR, spec.Scheme)
	}
	switch spec.Scheme {
	case DefectFree:
		return schemes.NewDefectFree(next), schemes.NewDefectFree(next), nil
	case Conventional:
		if spec.Op.PfailBit > 0 {
			return nil, nil, fmt.Errorf("%w: conventional cache below its 760mV Vccmin", ErrYield)
		}
		return schemes.NewConventional(next), schemes.NewConventional(next), nil
	case EightT:
		return schemes.New8T(next), schemes.New8T(next), nil
	case SimpleWdis:
		ic, err := schemes.NewSimpleWdis(fmI, next)
		if err != nil {
			return nil, nil, err
		}
		dc, err := schemes.NewSimpleWdis(fmD, next)
		return ic, dc, err
	case WilkersonPlus:
		ic, err := schemes.NewWilkersonPlus(fmI, next)
		if err != nil {
			return nil, nil, err
		}
		dc, err := schemes.NewWilkersonPlus(fmD, next)
		return ic, dc, err
	case WilkersonPlain:
		if !schemes.Coverable(fmI) || !schemes.Coverable(fmD) {
			return nil, nil, fmt.Errorf("%w: plain word-disable has a dead logical slot", ErrYield)
		}
		// On a coverable map the plain scheme behaves exactly like the
		// supplemented one (the supplement never triggers).
		ic, err := schemes.NewWilkersonPlus(fmI, next)
		if err != nil {
			return nil, nil, err
		}
		dc, err := schemes.NewWilkersonPlus(fmD, next)
		return ic, dc, err
	case FBA64, FBAPlus:
		n := 64
		if spec.Scheme == FBAPlus {
			n = 1024
		}
		ic, err := schemes.NewFBA(fmI, next, n)
		if err != nil {
			return nil, nil, err
		}
		dc, err := schemes.NewFBA(fmD, next, n)
		return ic, dc, err
	case IDC64, IDCPlus:
		n := 64
		if spec.Scheme == IDCPlus {
			n = 1024
		}
		ic, err := schemes.NewIDC(fmI, next, n)
		if err != nil {
			return nil, nil, err
		}
		dc, err := schemes.NewIDC(fmD, next, n)
		return ic, dc, err
	case FFWBBR:
		ic, err := bbr.NewICache(fmI, next)
		if err != nil {
			return nil, nil, err
		}
		opts := ffw.Options{Placement: spec.Placement, Scatter: spec.Scatter}
		if spec.Inject.Enabled() {
			// Independent event streams per cache, salted so the I- and
			// D-side injectors never correlate.
			injI, ierr := inject.New(l1Words, spec.Op.VoltageMV, spec.Inject.WithSeed(spec.Inject.Seed*2+21))
			if ierr != nil {
				return nil, nil, ierr
			}
			injD, derr := inject.New(l1Words, spec.Op.VoltageMV, spec.Inject.WithSeed(spec.Inject.Seed*2+22))
			if derr != nil {
				return nil, nil, derr
			}
			ic.AttachInjector(injI)
			opts.Injector = injD
		}
		dc, err := ffw.New(fmD, next, opts)
		return ic, dc, err
	case BitFixScheme:
		ic, err := schemes.NewBitFix(fmI, next)
		if err != nil {
			return nil, nil, err
		}
		dc, err := schemes.NewBitFix(fmD, next)
		return ic, dc, err
	case SECDEDScheme:
		// ECC sees only the uncorrectable (>=2 failed bits) words; fresh
		// maps are drawn from the same seeds at the multi-bit rate.
		mbI := drawSECDEDMap(spec.Op.PfailBit, spec.MapSeed*2+11)
		mbD := drawSECDEDMap(spec.Op.PfailBit, spec.MapSeed*2+12)
		ic, err := schemes.NewSECDED(mbI, next)
		if err != nil {
			return nil, nil, err
		}
		dc, err := schemes.NewSECDED(mbD, next)
		return ic, dc, err
	default:
		return nil, nil, fmt.Errorf("sim: unknown scheme %q", spec.Scheme)
	}
}

// L1StaticFactor returns the scheme's combined L1 static-power multiplier
// from the cacti model (both caches averaged), used by the energy model.
// Per the paper's methodology, FBA⁺ and IDC⁺ are *granted* the leakage of
// their realistic 64-entry configurations ("we give an advantage to FBA+
// and IDC+ in our energy calculation by ignoring the energy overhead of
// their 1024 entries").
func L1StaticFactor(s Scheme) float64 {
	t := cacti.Default45nm()
	switch s {
	case DefectFree, Conventional:
		return 1
	case EightT:
		return t.RelativeLeakage(cacti.EightT())
	case SimpleWdis:
		return t.RelativeLeakage(cacti.SimpleWdis())
	case WilkersonPlus, WilkersonPlain:
		return t.RelativeLeakage(cacti.Wilkerson())
	case FBA64, FBAPlus:
		return t.RelativeLeakage(cacti.FBA(64))
	case IDC64, IDCPlus:
		return t.RelativeLeakage(cacti.IDC(64))
	case FFWBBR:
		return (t.RelativeLeakage(cacti.FFWData()) + t.RelativeLeakage(cacti.BBRInstr())) / 2
	case SECDEDScheme:
		return t.RelativeLeakage(cacti.SECDED())
	case BitFixScheme:
		return t.RelativeLeakage(cacti.BitFix())
	default:
		return 1
	}
}
