package event

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTimeConversions(t *testing.T) {
	if FromNS(60) != 60*Nanosecond {
		t.Errorf("FromNS(60) = %d", FromNS(60))
	}
	if got := (90 * Nanosecond).NS(); got != 90 {
		t.Errorf("NS() = %v", got)
	}
	// Table II periods, rounded to integer femtoseconds.
	if got := PeriodOf(1607); got != 622278 {
		t.Errorf("PeriodOf(1607) = %d, want 622278", got)
	}
	if got := PeriodOf(475); got != 2105263 {
		t.Errorf("PeriodOf(475) = %d, want 2105263", got)
	}
}

// TestTieBreakGolden pins the same-tick ordering contract against a
// fixture on disk: events scheduled at equal timestamps fire in
// schedule order (sequence-number tie-break), interleaved events fire
// in (time, seq) order, and past-time scheduling clamps to Now. A
// scheduler ordered only by time is exactly the nondeterminism detflow
// exists to catch, so the ordering is held by a golden file rather
// than a property that a "mostly sorted" heap could accidentally pass.
func TestTieBreakGolden(t *testing.T) {
	e := NewEngine()
	var log []string
	emit := func(tag string) Handler {
		return func(at Time) error {
			log = append(log, fmt.Sprintf("%d %s", at, tag))
			return nil
		}
	}
	// Same-tick group scheduled out of time order, nested scheduling
	// (events scheduling same-tick and future events), and one
	// past-time schedule that must clamp.
	e.Schedule(30, emit("c0"))
	e.Schedule(10, emit("a0"))
	e.Schedule(30, emit("c1"))
	e.Schedule(10, func(at Time) error {
		log = append(log, fmt.Sprintf("%d a1+nest", at))
		e.Schedule(10, emit("a2-nested-same-tick"))
		e.Schedule(20, emit("b1-nested"))
		e.Schedule(5, emit("a3-clamped-past")) // 5 < now: clamps to 10
		return nil
	})
	e.Schedule(20, emit("b0"))
	e.Schedule(30, emit("c2"))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(log, "\n") + "\n"

	golden := filepath.Join("testdata", "tiebreak.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("event order diverged from golden fixture.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestRunIsReproducible(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		var fired []Time
		for i := 0; i < 100; i++ {
			at := Time((i * 37) % 10) // many collisions
			e.Schedule(at, func(at Time) error {
				fired = append(fired, at)
				return nil
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return fired
	}
	a, b := run(), run()
	if len(a) != 100 || len(b) != 100 {
		t.Fatalf("fired %d/%d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at event %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRunUntilAndClear(t *testing.T) {
	e := NewEngine()
	var fired int
	for _, at := range []Time{5, 10, 15, 20} {
		e.Schedule(at, func(Time) error { fired++; return nil })
	}
	if err := e.RunUntil(12); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Errorf("RunUntil(12) fired %d events, want 2", fired)
	}
	if e.Now() != 12 {
		t.Errorf("Now() = %d after RunUntil(12)", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", e.Pending())
	}
	e.Clear()
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d after Clear", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Errorf("cleared events still fired: %d", fired)
	}
}

func TestStepErrorStopsRun(t *testing.T) {
	e := NewEngine()
	boom := fmt.Errorf("boom")
	var after bool
	e.Schedule(1, func(Time) error { return boom })
	e.Schedule(2, func(Time) error { after = true; return nil })
	if err := e.Run(); err != boom {
		t.Fatalf("Run() = %v, want boom", err)
	}
	if after {
		t.Error("event after the failing one still fired")
	}
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", e.Pending())
	}
}

type testComp string

func (c testComp) Name() string { return string(c) }

func TestPortRoundTrip(t *testing.T) {
	e := NewEngine()
	client, server := testComp("client"), testComp("server")
	creq := NewPort[int](e, client, "req")
	cresp := NewPort[int](e, client, "resp")
	sreq := NewPort[int](e, server, "req")
	sresp := NewPort[int](e, server, "resp")
	if err := Connect(creq, sreq, 3*Picosecond); err != nil {
		t.Fatal(err)
	}
	if err := Connect(sresp, cresp, 3*Picosecond); err != nil {
		t.Fatal(err)
	}

	const service = 10 * Picosecond
	sreq.OnRecv = func(msg int, at Time) error {
		return sresp.Send(msg*2, at+service)
	}
	var gotMsg int
	var gotAt Time
	cresp.OnRecv = func(msg int, at Time) error {
		gotMsg, gotAt = msg, at
		return nil
	}
	if err := creq.Send(21, 100*Picosecond); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if gotMsg != 42 {
		t.Errorf("response = %d, want 42", gotMsg)
	}
	// 100 send + 3 link + 10 service + 3 link back.
	if want := 116 * Picosecond; gotAt != want {
		t.Errorf("response at %d, want %d", gotAt, want)
	}
}

func TestConnectRejectsMisuse(t *testing.T) {
	e1, e2 := NewEngine(), NewEngine()
	a := NewPort[int](e1, testComp("a"), "p")
	b := NewPort[int](e2, testComp("b"), "p")
	if err := Connect(a, b, 0); err == nil {
		t.Error("cross-engine connect accepted")
	}
	c := NewPort[int](e1, testComp("c"), "p")
	if err := Connect(a, c, -1); err == nil {
		t.Error("negative latency accepted")
	}
	if err := Connect(a, c, 0); err != nil {
		t.Fatal(err)
	}
	d := NewPort[int](e1, testComp("d"), "p")
	if err := Connect(a, d, 0); err == nil {
		t.Error("double connect accepted")
	}
	if err := d.Send(1, 0); err == nil {
		t.Error("send on unconnected port accepted")
	}
	if a.Peer() != c || a.Name() != "a.p" {
		t.Errorf("wiring accessors broken: peer %v name %q", a.Peer(), a.Name())
	}
}

func TestRecvHookMissingFailsRun(t *testing.T) {
	e := NewEngine()
	a := NewPort[int](e, testComp("a"), "p")
	b := NewPort[int](e, testComp("b"), "p")
	if err := Connect(a, b, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil {
		t.Error("delivery to a hook-less port should fail the run")
	}
}

// TestQueuePopsInTimeThenScheduleOrder checks the typed heap against
// the contract directly: over random timestamps with many collisions,
// and handlers that schedule more events, every event fires after all
// events with a smaller (time, schedule order) pair.
func TestQueuePopsInTimeThenScheduleOrder(t *testing.T) {
	type fired struct {
		at  Time
		seq int
	}
	e := NewEngine()
	rng := rand.New(rand.NewSource(3))
	var log []fired
	seq := 0
	var schedule func(at Time)
	schedule = func(at Time) {
		seq++
		id := seq
		e.Schedule(at, func(now Time) error {
			log = append(log, fired{now, id})
			if seq < 20_000 {
				for k := rng.Intn(3); k > 0; k-- {
					schedule(now + Time(rng.Intn(50)))
				}
			}
			return nil
		})
	}
	for i := 0; i < 500; i++ {
		schedule(Time(rng.Intn(100)))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(log) != seq {
		t.Fatalf("fired %d of %d events", len(log), seq)
	}
	for i := 1; i < len(log); i++ {
		a, b := log[i-1], log[i]
		if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
			t.Fatalf("event %d fired (%d, #%d) after (%d, #%d)", i, b.at, b.seq, a.at, a.seq)
		}
	}
}

// TestScheduleStepDoNotAllocate: once the queue has grown, scheduling
// and firing allocate nothing (the handler is built once, outside).
func TestScheduleStepDoNotAllocate(t *testing.T) {
	e := NewEngine()
	nop := func(Time) error { return nil }
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i), nop)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 32; i++ {
			e.Schedule(e.Now()+Time(i%7), nop)
		}
		for i := 0; i < 32; i++ {
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Schedule+Step allocate %.0f times per 32 events, want 0", allocs)
	}
}

// echoPair wires a client and a server port pair on e: the server
// answers every request on its response port after service time.
func echoPair(e *Engine, service Time) (creq, cresp, sreq, sresp *Port[int]) {
	client, server := testComp("client"), testComp("server")
	creq = NewPort[int](e, client, "req")
	cresp = NewPort[int](e, client, "resp")
	sreq = NewPort[int](e, server, "req")
	sresp = NewPort[int](e, server, "resp")
	if err := Connect(creq, sreq, Picosecond); err != nil {
		panic(err)
	}
	if err := Connect(sresp, cresp, Picosecond); err != nil {
		panic(err)
	}
	sreq.OnRecv = func(msg int, at Time) error { return sresp.Send(msg, at+service) }
	return creq, cresp, sreq, sresp
}

// TestPortSendDoesNotAllocate: once a port has delivered, a send and
// the step that fires it allocate nothing — the delivery record comes
// off the sending port's free list and goes back on it when it fires.
func TestPortSendDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	creq, cresp, _, _ := echoPair(e, Picosecond)
	var got int
	cresp.OnRecv = func(msg int, _ Time) error { got = msg; return nil }
	roundTrip := func(msg int) {
		if err := creq.Send(msg, e.Now()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	roundTrip(0)
	msg := 0
	allocs := testing.AllocsPerRun(1000, func() {
		msg++
		roundTrip(msg)
	})
	if allocs != 0 {
		t.Errorf("Send+Step allocate %.1f times per round trip, want 0", allocs)
	}
	if got != msg {
		t.Errorf("last delivery carried %d, want %d", got, msg)
	}
}

// TestPortDeliveriesKeepTheirPayloads: several sends in flight on one
// port, some at the same tick, each deliver their own message in
// (time, seq) order — delivery records are reused, never shared — and
// the port keeps working after Clear drops sends that never fired.
func TestPortDeliveriesKeepTheirPayloads(t *testing.T) {
	type got struct {
		msg int
		at  Time
	}
	e := NewEngine()
	a := NewPort[int](e, testComp("a"), "out")
	b := NewPort[int](e, testComp("b"), "in")
	if err := Connect(a, b, 2); err != nil {
		t.Fatal(err)
	}
	var log []got
	b.OnRecv = func(msg int, at Time) error {
		log = append(log, got{msg, at})
		// A send from inside a delivery reuses the record just fired.
		if msg%10 == 0 {
			return a.Send(msg+1, at)
		}
		return nil
	}
	check := func(want []got) {
		t.Helper()
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if len(log) != len(want) {
			t.Fatalf("delivered %v, want %v", log, want)
		}
		for i := range want {
			if log[i] != want[i] {
				t.Fatalf("delivery %d = %v, want %v (all: %v)", i, log[i], want[i], log)
			}
		}
		log = nil
	}
	send := func(msg int, at Time) {
		t.Helper()
		if err := a.Send(msg, at); err != nil {
			t.Fatal(err)
		}
	}
	// Same-tick sends fire in send order, interleaved with earlier and
	// later ones; each nested send lands after its parent.
	send(5, 10)
	send(20, 4)
	send(7, 10)
	send(8, 4)
	send(9, 10)
	check([]got{{20, 6}, {8, 6}, {21, 8}, {5, 12}, {7, 12}, {9, 12}})

	// Records freed by the run above are reused for a second burst.
	for i := 1; i <= 6; i++ {
		send(100+i, Time(30-i%2))
	}
	check([]got{{101, 31}, {103, 31}, {105, 31}, {102, 32}, {104, 32}, {106, 32}})

	// Clear drops in-flight deliveries; later sends still carry their
	// own payloads.
	send(1, 40)
	send(2, 40)
	e.Clear()
	send(3, 50)
	send(4, 50)
	send(30, 49)
	check([]got{{30, 51}, {3, 52}, {4, 52}, {31, 53}})
}
