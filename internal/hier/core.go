package hier

import (
	"context"
	"iter"
	"math"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/event"
	"repro/internal/workload"
)

// coreAbort unwinds a core coroutine's scheme call stack when the
// hierarchy stops it mid-epoch (engine abort). It never escapes the
// coroutine body.
type coreAbort struct{}

// Core is one core component: the trace-driven cpu model plus its two
// private L1 scheme caches and coalescing write buffer, driving request
// and response ports to the shared L2.
//
// The cpu model is synchronous — a scheme's miss path expects the
// next-level latency as a return value — so the epoch runs inside an
// iter.Pull coroutine. Core implements core.Lower: ReadBlock sends a
// port request and then steps the engine itself while the next event
// cannot resume another core (in-place service); it yields only when
// one could, and the response event then resumes the coroutine. Either
// way ReadBlock returns the observed latency into the unchanged scheme
// code. That is the whole trick by which every scheme, fault injector
// and recovery ladder runs behind ports without modification.
type Core struct {
	id   int
	name string
	eng  *event.Engine

	req  *event.Port[MemReq]
	resp *event.Port[MemResp]

	// Rig: the voltage-segment-specific hardware (SetRig).
	op     dvfs.OperatingPoint
	period event.Time
	cfg    cpu.Config
	ic     core.InstrCache
	dc     core.DataCache
	next   *core.NextLevel
	stream *workload.Stream

	// offset shifts this core's traffic into a private slice of the
	// physical address space (block-aligned; no coherence is modelled).
	offset uint64

	// Epoch coroutine state.
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	base   event.Time // engine time at epoch start
	cycles float64    // cpu.Clock observation, epoch-local
	floor  event.Time // causality clamp: never timestamp before the last resume
	reqAt  event.Time
	repLat int
	repHit bool
	// inline is set while the blocked core steps the engine itself; the
	// response then only records the reply instead of resuming.
	inline bool
	// switches counts coroutine suspensions (read by tests).
	switches uint64
	result   cpu.Result
	err      error
	done     bool
}

// Name implements event.Component.
func (c *Core) Name() string { return c.name }

// Op returns the core's current operating point (its voltage domain).
func (c *Core) Op() dvfs.OperatingPoint { return c.op }

// Advance implements cpu.Clock: the cpu loop reports its cycle count
// before each instruction issues.
func (c *Core) Advance(cycles float64) { c.cycles = cycles }

// localTime converts the core's epoch-local cycle count to engine time.
// The clamp keeps timestamps causal: the cpu model's pipelined-latency
// accounting can advance local cycles more slowly than the wall-clock
// round trips the core actually waited out, and a request must never be
// stamped before the response that preceded it.
func (c *Core) localTime() event.Time {
	t := c.base + event.Time(math.Round(c.cycles*float64(c.period)))
	if t < c.floor {
		t = c.floor
	}
	return t
}

// ReadBlock implements core.Lower: send the demand read, wait for the
// response, and return the latency the core observed, in whole core
// cycles — exactly what the synchronous scheme code expects.
//
// The wait is in-place service: while the queue head is an event that
// cannot resume another core, the core fires it itself, popping exactly
// the event the run loop would pop next, so the (time, seq) order, the
// event count and the clock are the same as if it had yielded. It
// suspends only when the head belongs to another core, is a plain
// handler, or the queue is empty.
func (c *Core) ReadBlock(addr uint64) (int, bool) {
	at := c.localTime()
	c.reqAt = at
	if err := c.req.Send(MemReq{Core: c.id, Addr: addr + c.offset}, at); err != nil {
		c.unwind(err)
	}
	c.inline = true
	for c.inline {
		if !c.servesInline(c.eng.NextOwner()) {
			c.inline = false
			c.suspend()
			break
		}
		if _, err := c.eng.Step(); err != nil {
			c.unwind(err)
		}
	}
	return c.repLat, c.repHit
}

// servesInline reports whether a blocked core may fire an event bound
// for o itself: deliveries to the L2, the DRAM or this core's own
// response port never resume another core's coroutine.
func (c *Core) servesInline(o event.Component) bool {
	switch o := o.(type) {
	case *SharedL2, *DRAM:
		return true
	case *Core:
		return o == c
	}
	return false
}

// WriteBlock implements core.Lower: posted, fire-and-forget.
func (c *Core) WriteBlock(block uint64, forRead bool) {
	m := MemReq{Core: c.id, Addr: block*cache.BlockBytes + c.offset, Write: true, Forwarded: forRead}
	if err := c.req.Send(m, c.localTime()); err != nil {
		c.unwind(err)
	}
}

// suspend parks the coroutine until the next advanceAt. A false yield
// means the hierarchy stopped the epoch: unwind the scheme call stack.
func (c *Core) suspend() {
	c.switches++
	if !c.yield(struct{}{}) {
		c.unwind(nil)
	}
}

// unwind abandons the epoch from inside the coroutine: it records err
// (nil when the hierarchy itself stopped the epoch) for advanceAt to
// return, and unwinds the scheme call stack to the epoch wrapper.
func (c *Core) unwind(err error) {
	if err != nil {
		c.err = err
	}
	//lvlint:ignore nopanic coroutine unwind: recovered by the epoch wrapper, never escapes
	panic(coreAbort{})
}

// startEpoch spins up the epoch coroutine and schedules the kick event.
// The rig persists across epochs (streams and cache contents continue)
// until SetRig replaces it.
func (c *Core) startEpoch(ctx context.Context, n uint64) {
	c.base = c.eng.Now()
	c.floor = c.base
	c.cycles = 0
	c.done = false
	c.err = nil
	c.result = cpu.Result{}
	body := func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(coreAbort); !ok {
					//lvlint:ignore nopanic re-raise foreign panics; only the unwind sentinel is swallowed
					panic(r)
				}
			}
		}()
		c.yield = yield
		c.result, c.err = cpu.RunClocked(ctx, c.cfg, c.stream, c.ic, c.dc, c.next, n, c)
	}
	c.resume, c.stop = iter.Pull(iter.Seq[struct{}](body))
	c.eng.Schedule(c.base, func(at event.Time) error { return c.advanceAt(at) })
}

// advanceAt resumes the coroutine at engine time at. It runs until the
// next L2-bound read (request already sent) or epoch completion.
func (c *Core) advanceAt(at event.Time) error {
	c.floor = max(c.floor, at)
	if _, ok := c.resume(); !ok {
		c.done = true
		c.stop()
		return c.err
	}
	return nil
}

// recvResp handles the L2's answer to the outstanding demand read: the
// latency is the core-cycle round trip the blocked core just waited
// out, counted the way the trace model counts it (beyond the L1). A
// core servicing the engine in place is already running: the reply
// ends its wait. Otherwise the reply resumes its coroutine.
func (c *Core) recvResp(m MemResp, at event.Time) error {
	c.repHit = m.L2Hit
	c.repLat = int(math.Ceil(float64(at-c.reqAt) / float64(c.period)))
	if c.inline {
		c.inline = false
		c.floor = max(c.floor, at)
		return nil
	}
	return c.advanceAt(at)
}
