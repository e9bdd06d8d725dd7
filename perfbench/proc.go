package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procRun is one measured command execution.
type procRun struct {
	wall   time.Duration
	cpuS   float64 // user+sys of the command and every child it waited for
	rssMB  float64 // peak resident memory of the process tree
	stdout []byte
}

// rssPoll is how often the process tree's resident memory is sampled.
// The peak of the tree's sum is what a sharded run costs the host; the
// kernel's own peak (rusage) covers only the largest single process, so
// the larger of the two is reported.
const rssPoll = 20 * time.Millisecond

// runMeasured runs bin with args to completion, timing it from start
// to exit and sampling its process tree's memory. A non-zero exit is
// an error carrying the command's standard error.
func runMeasured(ctx context.Context, bin string, args ...string) (procRun, error) {
	p, err := startMeasured(ctx, bin, args...)
	if err != nil {
		return procRun{}, err
	}
	return p.wait(ctx)
}

// measuredProc is a started command whose memory is being sampled.
type measuredProc struct {
	cmd       *exec.Cmd
	out, errb bytes.Buffer
	start     time.Time
	stop      chan struct{}
	peak      chan float64
}

func startMeasured(ctx context.Context, bin string, args ...string) (*measuredProc, error) {
	p := &measuredProc{cmd: exec.CommandContext(ctx, bin, args...), stop: make(chan struct{}), peak: make(chan float64, 1)}
	p.cmd.Stdout, p.cmd.Stderr = &p.out, &p.errb
	p.start = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { p.peak <- sampleTreeRSS(p.cmd.Process.Pid, p.stop) }()
	return p, nil
}

// wait reaps the command and returns its measurements.
func (p *measuredProc) wait(ctx context.Context) (procRun, error) {
	err := p.cmd.Wait()
	r := procRun{wall: time.Since(p.start), stdout: p.out.Bytes()}
	close(p.stop)
	select {
	case r.rssMB = <-p.peak:
	case <-ctx.Done():
	}
	if st := p.cmd.ProcessState; st != nil {
		r.cpuS = (st.UserTime() + st.SystemTime()).Seconds()
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			r.rssMB = max(r.rssMB, float64(ru.Maxrss)/1024) // Linux reports KiB
		}
	}
	if err != nil {
		return r, fmt.Errorf("%s: %w: %s", strings.Join(p.cmd.Args, " "), err, lastLines(p.errb.String(), 5))
	}
	return r, nil
}

// sampleTreeRSS returns the largest summed VmRSS of pid and its
// descendants seen before stop closes.
func sampleTreeRSS(pid int, stop <-chan struct{}) float64 {
	t := time.NewTicker(rssPoll)
	defer t.Stop()
	best := 0.0
	for {
		if mb := treeRSSMB(pid); mb > best {
			best = mb
		}
		select {
		case <-stop:
			return best
		case <-t.C:
		}
	}
}

func treeRSSMB(pid int) float64 {
	total := 0.0
	for _, p := range descendants(pid) {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p))
		if err != nil {
			continue // exited between listing and reading
		}
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
				kb, _ := strconv.ParseFloat(f[1], 64) // malformed reads as 0
				total += kb / 1024
			}
		}
	}
	return total
}

// descendants lists pid and every process below it.
func descendants(pid int) []int {
	out := []int{pid}
	for i := 0; i < len(out); i++ {
		tasks, _ := os.ReadDir(fmt.Sprintf("/proc/%d/task", out[i])) // gone: no children
		for _, t := range tasks {
			data, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/children", out[i], t.Name()))
			if err != nil {
				continue
			}
			for _, f := range strings.Fields(string(data)) {
				if c, err := strconv.Atoi(f); err == nil {
					out = append(out, c)
				}
			}
		}
	}
	return out
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// median returns the middle value (mean of the two middle values for
// an even count) of xs, or 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
