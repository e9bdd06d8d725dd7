// Package hier is the event-driven multi-component memory hierarchy:
// core components (each wrapping the trace-driven cpu model and its two
// L1 scheme caches), a shared banked L2 with MSHRs, and a fixed-latency
// DRAM component, wired with typed ports on one isolated event.Engine
// per run.
//
// The determinism argument, in one paragraph: cores are blocking and
// in-order, their L1s are private, and the only shared state is the L2.
// Every cross-component interaction is a timestamped message through
// the engine's (time, sequence) ordered queue — a core blocks inside
// the scheme's miss path at every L2-bound read until the response
// event fires, and posted writes are delivered as ordinary events.
// While blocked, a core fires the L2, DRAM and own-reply events itself,
// exactly the ones the run loop would pop next, and yields its
// coroutine only before an event that could resume another core. A
// hierarchy run is therefore
// single-threaded, replays identically every time, and engines are
// per-run isolated, so grids of hierarchy runs parallelize across
// engine.Map workers with byte-identical results at any worker count —
// the same contract the trace-driven model guarantees.
//
// Known precision limits versus the trace-driven baseline are listed in
// DESIGN.md; the calibration regression test in internal/sim pins them.
package hier

// MemReq travels from a core's L1 miss path to the shared L2: a demand
// block read, or a posted coalesced block write (write-buffer drain).
type MemReq struct {
	// Core identifies the sender (response routing and statistics).
	Core int
	// Addr is the byte address, already offset into the core's private
	// slice of the physical space.
	Addr uint64
	// Write marks a posted block write; the L2 sends no response.
	Write bool
	// Forwarded marks a drain forced by a demand read to the same block
	// (write-buffer forwarding): contents must land so the read observes
	// them, but the data came from the buffer, so no bank time is
	// charged.
	Forwarded bool
}

// MemResp answers a demand read. A core is blocking — at most one
// outstanding read — so no request ID is needed.
type MemResp struct {
	Core  int
	L2Hit bool
}

// DramReq is an L2 fill request to the DRAM component.
type DramReq struct {
	Block uint64
}

// DramResp returns fill data for one block.
type DramResp struct {
	Block uint64
}
