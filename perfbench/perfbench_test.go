package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/inject"
	"repro/internal/sim"
)

func TestServeScheduleIsSeeded(t *testing.T) {
	render := func(seed int64) []byte {
		pop, err := servePopulationFor(seed)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, r := range serveSchedule(seed, 3) {
			p := pop[r.spec]
			fmt.Fprintf(&buf, "%d %s %s %s\n", r.due, p.path, p.hash, p.body)
		}
		return buf.Bytes()
	}
	a, b := render(devSeed), render(devSeed)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave two different request schedules")
	}
	if bytes.Equal(a, render(heldOutSeed)) {
		t.Fatal("different seeds gave the same request schedule")
	}
}

// runSpecs covers every scheme at a faulty point, the nominal
// baseline, and FFW+BBR under runtime injection.
func runSpecs() []sim.RunSpec {
	op400, _ := dvfs.PointAt(400)
	base := sim.RunSpec{Benchmark: "qsort", WorkSeed: 3, MapSeed: 5, Instructions: 20_000, CPU: cpu.DefaultConfig()}
	var specs []sim.RunSpec
	for _, s := range sim.AllSchemes() {
		spec := base
		spec.Scheme, spec.Op = s, op400
		specs = append(specs, spec)
	}
	nominal := base
	nominal.Scheme, nominal.Op = sim.Conventional, dvfs.Nominal()
	injected := base
	injected.Scheme, injected.Op = sim.FFWBBR, op400
	injected.Inject = inject.Params{Seed: 2, Intensity: 5}
	return append(specs, nominal, injected)
}

func TestTracedRigMatchesSimRun(t *testing.T) {
	for _, spec := range runSpecs() {
		want, wantErr := sim.Run(spec)
		var sp buildSpans
		r, err := buildRig(spec, &sp)
		if errors.Is(err, errYield) || errors.Is(wantErr, sim.ErrYield) {
			if !errors.Is(err, errYield) || !errors.Is(wantErr, sim.ErrYield) {
				t.Errorf("%s: traced rig err %v, sim.Run err %v", spec.Scheme, err, wantErr)
			}
			continue
		}
		if err != nil || wantErr != nil {
			t.Fatalf("%s: %v / %v", spec.Scheme, err, wantErr)
		}
		got, err := cpu.Run(spec.CPU, r.stream(), r.ic, r.dc, r.next, spec.Instructions)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: traced rig %+v, sim.Run %+v", spec.Scheme, got, want)
		}
	}
}

func TestReplayReproducesLiveCounts(t *testing.T) {
	for _, spec := range runSpecs() {
		var sp buildSpans
		live, err := buildRig(spec, &sp)
		if errors.Is(err, errYield) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{}
		res, err := cpu.Run(spec.CPU, live.stream(), recIC{live.ic, rec}, recDC{live.dc, rec}, live.next, spec.Instructions)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := buildRig(spec, &sp)
		if err != nil {
			t.Fatal(err)
		}
		got := replay(rec.seq, fresh.ic, fresh.dc, allOps)
		want := replayCounts{res.Executed, res.FetchMisses, res.Loads, res.LoadMisses, res.Stores}
		if got != want {
			t.Errorf("%s: replay %+v, live %+v", spec.Scheme, got, want)
		}
		if fresh.next.DemandReads() != res.L2Reads || fresh.next.MemReads() != res.MemReads {
			t.Errorf("%s: replay L2 %d/%d, live %d/%d", spec.Scheme,
				fresh.next.DemandReads(), fresh.next.MemReads(), res.L2Reads, res.MemReads)
		}
	}
}

func TestHierReplicaMatchesRunHierChaos(t *testing.T) {
	spec := hierSpecs(devSeed, 1)[0]
	spec.Epochs, spec.EpochInstructions = 4, 20_000
	want, err := sim.RunHierChaos(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	o := &outcome{metrics: map[string]float64{}}
	got, events, err := (&hierTimer{}).campaign(context.Background(), spec, o)
	if err != nil {
		t.Fatal(err)
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if !bytes.Equal(gj, wj) {
		t.Errorf("replica differs:\n%s\n%s", gj, wj)
	}
	if events == 0 || o.failed != 0 {
		t.Errorf("events %d, failed segment replays %d", events, o.failed)
	}
}

func TestFailuresCount(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/eval":
			http.Error(w, `{"error":"saturated"}`, http.StatusServiceUnavailable)
		case "/v1/sweep":
			fmt.Fprintln(w, `{"index":0,"result":{}}`) // no terminator line
		}
	}))
	defer srv.Close()
	pop := []serveSpec{{path: "/v1/eval", hash: "e"}, {path: "/v1/sweep", hash: "s"}}
	reqs := []serveRequest{{spec: 0}, {spec: 1}}
	for i := range reqs {
		send(context.Background(), srv.Client(), srv.URL, &pop[reqs[i].spec], &reqs[i], time.Now())
	}
	o := &outcome{}
	checkResponses(o, pop, reqs)
	if o.attempted != 2 || o.failed != 2 {
		t.Errorf("503 and unterminated stream: attempted %d failed %d, want 2 and 2", o.attempted, o.failed)
	}

	// A repeat whose body differs from the spec's first body fails.
	ok := []byte(`{"done":true,"rows":0,"of":0,"complete":true}` + "\n")
	reqs = []serveRequest{{spec: 1, status: 200, body: ok}, {spec: 1, status: 200, body: append([]byte("x"), ok...)}}
	o = &outcome{}
	checkResponses(o, pop, reqs)
	if o.failed != 1 {
		t.Errorf("differing repeat: failed %d, want 1", o.failed)
	}

	// A wrong digest on the development seed fails; other seeds only
	// report theirs.
	o = &outcome{}
	checkDigest(o, "grid", devSeed, "not-the-pinned-digest")
	checkDigest(o, "grid", heldOutSeed, "not-the-pinned-digest")
	if o.attempted != 1 || o.failed != 1 {
		t.Errorf("wrong digest: attempted %d failed %d, want 1 and 1", o.attempted, o.failed)
	}
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, set := range []struct {
		defs []metricDef
		json []struct{ Name, Unit string }
	}{{endToEnd, b.EndToEnd}, {perLayer, b.PerLayer}} {
		if len(set.defs) != len(set.json) {
			t.Fatalf("%d metrics here, %d in BENCHMARK.json", len(set.defs), len(set.json))
		}
		for i, d := range set.defs {
			if !valid.MatchString(d.name) || seen[d.name] {
				t.Errorf("metric name %q invalid or repeated", d.name)
			}
			seen[d.name] = true
			if j := set.json[i]; j.Name != d.name || j.Unit != d.unit {
				t.Errorf("metric %d: %s/%s here, %s/%s in BENCHMARK.json", i, d.name, d.unit, j.Name, j.Unit)
			}
		}
	}
}

// The idle holder must spin only at SCHED_IDLE, never at the normal
// priority of the program it shares the CPUs with.
func TestSetIdlePolicy(t *testing.T) {
	got := make(chan uintptr, 1)
	go func() {
		runtime.LockOSThread() // never unlocked: the thread exits with this goroutine
		if err := setIdlePolicy(); err != nil {
			t.Error(err)
		}
		policy, _, _ := syscall.RawSyscall(syscall.SYS_SCHED_GETSCHEDULER, 0, 0, 0)
		got <- policy
	}()
	if p := <-got; p != schedIdle {
		t.Fatalf("thread policy %d after setIdlePolicy, want SCHED_IDLE (%d)", p, schedIdle)
	}
}
