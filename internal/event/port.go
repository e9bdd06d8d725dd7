package event

import "fmt"

// Component is anything that owns ports and reacts to deliveries — a
// core, a cache, a memory controller. The interface is deliberately
// minimal: behaviour lives in the port receive hooks, identity in Name
// (used for wiring errors and traces).
type Component interface {
	Name() string
}

// Port is one typed endpoint of a point-to-point connection. A message
// sent on a port is delivered to the peer's OnRecv hook after the
// connection's latency. Ports are unidirectional in type but a
// component usually owns a request port and a response port per link.
type Port[T any] struct {
	eng     *Engine
	owner   Component
	name    string
	peer    *Port[T]
	latency Time
	// free lists the delivery records of this port's sends that have
	// fired; Send reuses them, so steady-state sends allocate nothing.
	free *delivery[T]

	// OnRecv handles a delivery on this port. It runs at the delivery
	// timestamp; a nil hook fails the engine run (wiring bug).
	OnRecv func(msg T, at Time) error
}

// NewPort creates a port owned by the component on the given engine.
func NewPort[T any](eng *Engine, owner Component, name string) *Port[T] {
	return &Port[T]{eng: eng, owner: owner, name: name}
}

// Name returns "owner.port".
func (p *Port[T]) Name() string { return p.owner.Name() + "." + p.name }

// Peer returns the connected remote port, or nil.
func (p *Port[T]) Peer() *Port[T] { return p.peer }

// Latency returns the connection's one-way latency.
func (p *Port[T]) Latency() Time { return p.latency }

// Connect links two ports with a symmetric one-way latency annotation.
// Both ports must live on the same engine and be unconnected.
func Connect[T any](a, b *Port[T], latency Time) error {
	switch {
	case a == nil || b == nil:
		return fmt.Errorf("event: connect: nil port")
	case a.eng != b.eng:
		return fmt.Errorf("event: connect %s <-> %s: different engines", a.Name(), b.Name())
	case a.peer != nil:
		return fmt.Errorf("event: connect: %s already connected to %s", a.Name(), a.peer.Name())
	case b.peer != nil:
		return fmt.Errorf("event: connect: %s already connected to %s", b.Name(), b.peer.Name())
	case latency < 0:
		return fmt.Errorf("event: connect %s <-> %s: negative latency", a.Name(), b.Name())
	}
	a.peer, b.peer = b, a
	a.latency, b.latency = latency, latency
	return nil
}

// delivery is one in-flight message: the queue entry a Send schedules.
// It belongs to the sending port and returns to that port's free list
// when it fires (a record dropped by Engine.Clear is simply collected).
type delivery[T any] struct {
	from *Port[T]
	msg  T
	next *delivery[T] // free-list link
}

func (d *delivery[T]) dest() Component { return d.from.peer.owner }

// fire frees the record before running the hook, so a send from inside
// the hook can reuse it.
func (d *delivery[T]) fire(at Time) error {
	from, msg := d.from, d.msg
	var zero T
	d.msg, d.next, from.free = zero, from.free, d
	peer := from.peer
	if peer.OnRecv == nil {
		return fmt.Errorf("event: %s has no receive hook", peer.Name())
	}
	return peer.OnRecv(msg, at)
}

// Send schedules msg for delivery to the peer's OnRecv at sendAt plus
// the connection latency. The error reports an unconnected port; the
// delivery itself can only fail inside the peer's hook, which surfaces
// through the engine's run loop.
func (p *Port[T]) Send(msg T, sendAt Time) error {
	if p.peer == nil {
		return fmt.Errorf("%w: %s", ErrUnconnected, p.Name())
	}
	d := p.free
	if d == nil {
		d = &delivery[T]{from: p}
	} else {
		p.free, d.next = d.next, nil
	}
	d.msg = msg
	p.eng.schedule(sendAt+p.latency, d)
	return nil
}
