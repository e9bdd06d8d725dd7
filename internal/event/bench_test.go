package event

import "testing"

// BenchmarkEventKernel measures raw scheduler throughput: a chain of
// self-rescheduling events with same-tick collisions, the pattern the
// memory hierarchy generates. bench.sh derives events/sec from the
// per-op cost (one op = one event).
func BenchmarkEventKernel(b *testing.B) {
	e := NewEngine()
	remaining := b.N
	var chain Handler
	chain = func(at Time) error {
		if remaining == 0 {
			return nil
		}
		remaining--
		e.Schedule(at+Time(remaining%3), chain)
		return nil
	}
	b.ResetTimer()
	e.Schedule(0, chain)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if e.Processed() != uint64(b.N)+1 {
		b.Fatalf("processed %d events, want %d", e.Processed(), b.N+1)
	}
}

// BenchmarkPortRoundTrip measures typed-port delivery: a client sends
// a request, the server answers on its response port, and each op is
// one delivery (half a round trip). bench.sh records its ns/op as the
// per-delivery cost.
func BenchmarkPortRoundTrip(b *testing.B) {
	e := NewEngine()
	creq, cresp, _, _ := echoPair(e, Picosecond)
	remaining := b.N / 2
	cresp.OnRecv = func(msg int, at Time) error {
		if remaining == 0 {
			return nil
		}
		remaining--
		return creq.Send(msg+1, at)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := creq.Send(0, 0); err != nil {
		b.Fatal(err)
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
