// Package event is a deterministic discrete-event simulation kernel in
// the style of akita/mgpusim: a tick-ordered scheduler, components, and
// typed ports with latency-annotated connections.
//
// Determinism is the contract. Events are ordered by (time, sequence
// number), where the sequence number is assigned at Schedule time — two
// events at the same tick fire in the order they were scheduled, never
// in map, goroutine or heap-internal order. An Engine is single-threaded
// and carries no global state, so one isolated Engine per run keeps
// engine.Map grids embarrassingly parallel while every individual run
// replays identically at any worker count (the same invariant lvlint's
// detflow polices for the trace-driven model).
package event

import (
	"errors"
	"math"
)

// Time is simulation time in femtoseconds. The femtosecond base keeps
// clock-domain math exact in integers: one cycle at any Table II
// frequency is hundreds of thousands of femtoseconds, so rounding a
// period to integer femtoseconds loses less than 1e-5 of a cycle.
type Time int64

// Time units.
const (
	Femtosecond Time = 1
	Picosecond  Time = 1000 * Femtosecond
	Nanosecond  Time = 1000 * Picosecond
)

// FromNS converts a wall-clock latency in nanoseconds to Time.
func FromNS(ns float64) Time {
	return Time(math.Round(ns * float64(Nanosecond)))
}

// NS converts t to nanoseconds.
func (t Time) NS() float64 { return float64(t) / float64(Nanosecond) }

// PeriodOf returns the clock period of a domain running at freqMHz,
// rounded to integer femtoseconds.
func PeriodOf(freqMHz float64) Time {
	return Time(math.Round(1e9 / freqMHz))
}

// Handler is an event body. It runs at the event's scheduled time; a
// non-nil error aborts the engine's run loop.
type Handler func(at Time) error

// firer is what the queue holds: a plain Handler, or a port's delivery
// record. Both are pointer-shaped, so queuing either boxes nothing.
type firer interface {
	fire(at Time) error
	// dest is the component the event is delivered to (nil for a plain
	// handler), for NextOwner.
	dest() Component
}

func (h Handler) fire(at Time) error { return h(at) }
func (Handler) dest() Component      { return nil }

// item is one scheduled event. seq breaks same-tick ties: it is
// assigned at schedule time, so same-tick events fire in schedule order.
type item struct {
	at  Time
	seq uint64
	ev  firer
}

// queue is the (time, seq)-ordered binary min-heap, typed so that
// pushing and popping never box an item. (time, seq) is a total order,
// so the pop order is fully determined by the schedule.
type queue []item

func (q queue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *queue) push(it item) {
	*q = append(*q, it)
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *queue) pop() item {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = item{}
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return top
}

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; parallelism belongs one level up, across engines.
type Engine struct {
	now       Time
	seq       uint64
	q         queue
	processed uint64
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time: the timestamp of the event
// being (or most recently) processed.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return len(e.q) }

// Processed returns the number of events fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Schedule enqueues fn to fire at the given time. Scheduling in the
// past is clamped to Now(): simulated time never runs backwards, and a
// component whose local clock lags the engine (the core model's
// pipelined-latency accounting can do this) is simply serviced
// immediately.
func (e *Engine) Schedule(at Time, fn Handler) { e.schedule(at, fn) }

func (e *Engine) schedule(at Time, ev firer) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.q.push(item{at: at, seq: e.seq, ev: ev})
}

// NextOwner returns the component the earliest pending event is
// delivered to, or nil when the queue is empty or the head is a plain
// handler. It is the event Step would fire next, so a component that
// decides from it to step the engine itself fires exactly what the run
// loop would have.
func (e *Engine) NextOwner() Component {
	if len(e.q) == 0 {
		return nil
	}
	return e.q[0].ev.dest()
}

// Step fires the single earliest event. It returns false when the
// queue is empty, and the handler's error if the event failed.
func (e *Engine) Step() (bool, error) {
	if len(e.q) == 0 {
		return false, nil
	}
	it := e.q.pop()
	e.now = it.at
	e.processed++
	return true, it.ev.fire(it.at)
}

// Run fires events in (time, seq) order until the queue drains or a
// handler fails.
func (e *Engine) Run() error {
	for {
		ok, err := e.Step()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// RunUntil fires events with timestamps <= t, then advances Now to t.
func (e *Engine) RunUntil(t Time) error {
	for len(e.q) > 0 && e.q[0].at <= t {
		if _, err := e.Step(); err != nil {
			return err
		}
	}
	if e.now < t {
		e.now = t
	}
	return nil
}

// Clear drops every pending event without firing it. Used on abort so
// no handler observes a half-torn-down hierarchy.
func (e *Engine) Clear() { e.q = nil }

// ErrUnconnected reports a Send on a port without a connected peer.
var ErrUnconnected = errors.New("event: port is not connected")
