// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the real entry points (lvsim, lvchaos
// -hierarchy, lvserve) with tracing off, or, with -trace 1, rebuilds
// the same work in-process from the layers' public functions and times
// each layer from outside. Every run checks its outputs: pinned
// digests for the development seed, byte-identical repeats, replayed
// counts against live counts, and traced results against sim.Run.
//
// Run it from the repository root through run.sh, which builds the
// commands first:
//
//	bash perfbench/run.sh --workload grid --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Digests and sample counts go
// to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

// devSeed is the seed the pinned digests were recorded on; heldOutSeed
// is never used while tuning, so a later gain can be re-checked on it.
const (
	devSeed     = 1
	heldOutSeed = 7
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is printed with -trace 0 on every workload. A batch
// workload (grid, hierchaos) is one operation, so its p50_ms and
// p99_ms are that operation's latency.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_mips", "Minstr/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"goodput_rps", "1/s"},
}

// perLayer is printed with -trace 1 on every workload; a layer the
// workload does not exercise reads 0. Names marked (sim) in NOTES.md
// are simulated counts that repeat exactly for a seed.
var perLayer = []metricDef{
	{"workload.ns_per_instr", "ns"},
	{"bbr.ns_per_fetch", "ns"},
	{"ffw.ns_per_access", "ns"},
	{"schemes.ns_per_access", "ns"},
	{"cpu.self_ns_per_instr", "ns"},
	{"faultmap.generate_us", "us"},
	{"program.build_us", "us"},
	{"bbr.link_us", "us"},
	{"cache.build_us", "us"},
	{"energy.fold_us", "us"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cpu_ratio", "ratio"},
	{"bbr.link_fail_ratio", "ratio"},
	{"cache.l1_hit_ratio", "ratio"},
	{"ffw.window_miss_ratio", "ratio"},
	{"core.l2_reads", "count"},
	{"core.mem_reads", "count"},
	{"cpu.instrs", "count"},
	{"sim.memo_hit_ratio", "ratio"},
	{"engine.busy_ratio", "ratio"},
	{"engine.tail_s", "s"},
	{"serve.first_p50_ms", "ms"},
	{"serve.repeat_p50_ms", "ms"},
	{"serve.repeat_share", "ratio"},
	{"serve.overhead_ms", "ms"},
	{"serve.sweep_first_row_ms", "ms"},
	{"serve.late_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.run_memo_hit_ratio", "ratio"},
	{"serve.computes", "count"},
	{"serve.shed", "count"},
	{"serve.expired", "count"},
	{"hier.host_ns_per_instr", "ns"},
	{"event.events", "count"},
	{"event.ns_per_event", "ns"},
	{"hier.l2_reads", "count"},
	{"hier.l2_merges", "count"},
	{"hier.l2_wait_cy_per_read", "cycles"},
	{"inject.detected", "count"},
	{"inject.recovery_cycles", "cycles"},
	{"dvfs.step_ups", "count"},
	{"dvfs.step_downs", "count"},
	{"dist.overhead_s", "s"},
	{"dist.jobs", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.selftime_sum_ratio", "ratio"},
}

// workers is the parallelism every workload runs at: the host width,
// as lvsim's own -workers default would pick.
var workers = runtime.NumCPU()

// env locates the built commands and the scratch directory.
type env struct {
	bin     string // directory holding lvsim, lvchaos, lvserve
	scratch string // per-run files (server address files)
	seed    int64
	seconds int
}

func (e env) cmd(name string) string { return filepath.Join(e.bin, name) }

// outcome is what one workload run reports. Its notes (failure
// reasons, digests, sample counts) go to standard error when the run
// ends.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
}

// note records one line for standard error.
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, "perfbench: "+fmt.Sprintf(format, args...))
}

// fail records one failed operation and why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.note("FAIL: "+format, args...)
}

// check counts one attempted operation, failing it when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

type runner func(ctx context.Context, e env, o *outcome) error

var workloads = map[string][2]runner{
	"grid":      {gridE2E, gridTrace},
	"serve":     {serveE2E, serveTrace},
	"hierchaos": {hierE2E, hierTrace},
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == idleHoldFlag {
		if err := holdIdle(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "grid, serve or hierchaos")
		seed     = flag.Int64("seed", devSeed, "workload seed")
		seconds  = flag.Int("seconds", 40, "measured seconds (serve schedule length)")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer measurement")
		bin      = flag.String("bin", ".bench_build/perfbench/bin", "directory of the built commands")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *bin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int, bin string) error {
	fns, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	for _, c := range []string{"lvsim", "lvchaos", "lvserve"} {
		if _, err := os.Stat(filepath.Join(bin, c)); err != nil {
			return fmt.Errorf("command not built: %w", err)
		}
	}
	scratch := filepath.Join(filepath.Dir(bin), "run")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := &outcome{metrics: map[string]float64{}}
	err := fns[trace](ctx, env{bin: bin, scratch: scratch, seed: seed, seconds: seconds}, o)
	for _, n := range o.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	if err != nil {
		return err
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	line, err := resultLine(o, defs, trace == 0)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final JSON object with every metric in defs.
// A per-layer metric the workload does not exercise reads 0; a missing
// end-to-end metric (required) is an error.
func resultLine(o *outcome, defs []metricDef, required bool) ([]byte, error) {
	ms := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s not measured", d.name)
		}
		ms[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if o.attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, ms})
}
