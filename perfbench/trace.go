package main

import (
	"context"
	"errors"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/sim"
)

func isYield(err error) bool { return errors.Is(err, errYield) }

// goStats is a runtime/metrics snapshot: heap bytes allocated, and
// the GC's and the whole process's CPU seconds.
type goStats struct{ alloc, gcCPU, totalCPU float64 }

var goStatNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goStats{v(0), v(1), v(2)}
}

// report writes the allocation and GC share since g into m.
func (g goStats) report(m map[string]float64) {
	now := readGoStats()
	m["go.alloc_mb"] = (now.alloc - g.alloc) / (1 << 20)
	m["go.gc_cpu_ratio"] = ratio(now.gcCPU-g.gcCPU, now.totalCPU-g.totalCPU)
}

// rowSpan is when one pooled job ran.
type rowSpan struct{ start, end time.Time }

// mapSpans runs fn over n jobs on eng's pool, recording each job's
// span.
func mapSpans[T any](ctx context.Context, eng *sim.Engine, n int, fn func(context.Context, int) (T, error)) ([]T, []rowSpan, error) {
	spans := make([]rowSpan, n)
	out, err := engine.Map(ctx, eng.Pool(), n, func(ctx context.Context, i int) (T, error) {
		start := time.Now()
		v, err := fn(ctx, i)
		spans[i] = rowSpan{start, time.Now()}
		return v, err
	})
	return out, spans, err
}

// engineMetrics reports how busy the pool kept its workers and how
// long the last job ran after the pool stopped being full.
func engineMetrics(m map[string]float64, spans []rowSpan) {
	if len(spans) == 0 {
		return
	}
	first, busy := spans[0].start, time.Duration(0)
	ends := make([]time.Time, len(spans))
	for i, s := range spans {
		if s.start.Before(first) {
			first = s.start
		}
		busy += s.end.Sub(s.start)
		ends[i] = s.end
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	last := ends[len(ends)-1]
	full := ends[max(0, len(ends)-workers)]
	m["engine.busy_ratio"] = ratio(busy.Seconds(), last.Sub(first).Seconds()*float64(workers))
	m["engine.tail_s"] = last.Sub(full).Seconds()
}
