package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The serve workload: lvserve at workers, driven open loop at a fixed
// rate over at most workers keep-alive connections. Requests are short
// /v1/eval cells plus a minority of small /v1/sweep grids, drawn with a
// Zipf skew from a seeded population so a share of them repeats. Its
// HTTP phases run under an idle holder (idle.go).
const (
	serveRate        = 50 // requests per second
	servePopulation  = 16000
	serveZipfS       = 1.02
	serveZipfV       = 40
	serveSweepPerMil = 100 // sweeps per thousand population specs
	serveInstr       = 20_000
	serveEvalMaps    = 2
	serveSweepCells  = 2 // a sweep is one scheme × serveSweepCells benchmarks
	// serveLimit is the latency limit goodput counts against.
	serveLimit = 250 * time.Millisecond
	// serveTraceSpecs is how many distinct eval specs the traced run
	// rebuilds layer by layer.
	serveTraceSpecs = 40
)

// Kinds as lvserve's cache keys name them.
const (
	kindEval  = sim.KindRow
	kindSweep = "serve.sweep"
)

// serveSpec is one member of the request population.
type serveSpec struct {
	path string // /v1/eval or /v1/sweep
	body []byte
	hash string // lvserve's cache key for the body
	rows []sim.RowSpec
}

// serveRequest is one scheduled request and what happened to it.
type serveRequest struct {
	spec   int
	repeat bool // the spec was scheduled earlier in the run
	due    time.Duration
	sent   time.Duration
	first  time.Duration // first response byte (sweeps: first row)
	done   time.Duration
	status int
	err    error
	body   []byte
}

func (r *serveRequest) latency() time.Duration { return r.done - r.due }

// servePopulationFor draws the seeded population of request specs.
func servePopulationFor(seed int64) ([]serveSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	schemes, benches := sim.AllSchemes(), workload.Names()
	mvs := dvfs.Voltages()
	mvs = mvs[1:] // the low-voltage points; 760 mV is the baseline every row runs anyway
	pop := make([]serveSpec, servePopulation)
	for i := range pop {
		row := func() sim.RowSpec {
			return sim.RowSpec{Scheme: schemes[rng.Intn(len(schemes))], Benchmark: benches[rng.Intn(len(benches))],
				MV: mvs[rng.Intn(len(mvs))], Maps: serveEvalMaps, Seed: 1 + rng.Int63n(1000),
				Instructions: serveInstr, CPU: cpu.DefaultConfig()}
		}
		var err error
		if rng.Intn(1000) < serveSweepPerMil {
			cells := sweepCells(rng, schemes, benches, mvs)
			pop[i], err = newServeSpec("/v1/sweep", kindSweep, struct {
				Cells []sim.RowSpec `json:"cells"`
			}{cells}, cells)
		} else {
			r := row()
			pop[i], err = newServeSpec("/v1/eval", kindEval, r, []sim.RowSpec{r})
		}
		if err != nil {
			return nil, err
		}
	}
	return pop, nil
}

// sweepCells is a small grid: one scheme × serveSweepCells benchmarks
// at one voltage and seed, one map per cell. Two cells keep a first-time
// sweep near an eval's cost, so the p99 is not set by a few sweeps
// holding both workers.
func sweepCells(rng *rand.Rand, schemes []sim.Scheme, benches []string, mvs []int) []sim.RowSpec {
	scheme, mv, seed := schemes[rng.Intn(len(schemes))], mvs[rng.Intn(len(mvs))], 1+rng.Int63n(1000)
	var cells []sim.RowSpec
	for _, bi := range rng.Perm(len(benches))[:serveSweepCells] {
		cells = append(cells, sim.RowSpec{Scheme: scheme, Benchmark: benches[bi], MV: mv, Maps: 1,
			Seed: seed, Instructions: serveInstr, CPU: cpu.DefaultConfig()})
	}
	return cells
}

func newServeSpec(path, kind string, v any, rows []sim.RowSpec) (serveSpec, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return serveSpec{}, err
	}
	var hash string
	if kind == kindEval {
		hash, _, err = sim.CanonicalHash(kind, body, new(sim.RowSpec))
	} else {
		hash, _, err = sim.CanonicalHash(kind, body, new(struct {
			Cells []sim.RowSpec `json:"cells"`
		}))
	}
	return serveSpec{path: path, body: body, hash: hash, rows: rows}, err
}

// serveSchedule lays out seconds × serveRate requests at a fixed rate,
// each naming a population member drawn with a Zipf skew.
func serveSchedule(seed int64, seconds int) []serveRequest {
	rng := rand.New(rand.NewSource(seed ^ 0x5e7e))
	z := rand.NewZipf(rng, serveZipfS, serveZipfV, servePopulation-1)
	n := seconds * serveRate
	reqs := make([]serveRequest, n)
	seen := map[int]bool{}
	for i := range reqs {
		spec := int(z.Uint64())
		reqs[i] = serveRequest{spec: spec, repeat: seen[spec], due: time.Duration(i) * time.Second / serveRate}
		seen[spec] = true
	}
	return reqs
}

// server is a running lvserve.
type server struct {
	proc *measuredProc
	base string
	up   time.Duration // spawn until /healthz answered
}

func startServer(ctx context.Context, e env, n int) (*server, error) {
	addrFile := filepath.Join(e.scratch, fmt.Sprintf("serve-%d-%d.addr", os.Getpid(), n))
	_ = os.Remove(addrFile) // a stale file from an earlier run would name a dead port
	p, err := startMeasured(ctx, e.cmd("lvserve"), "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-workers", strconv.Itoa(workers))
	if err != nil {
		return nil, err
	}
	s := &server{proc: p}
	client := &http.Client{Timeout: time.Second}
	deadline := p.start.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if s.base == "" {
			if data, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(data, []byte("\n")) {
				s.base = "http://" + strings.TrimSpace(string(data))
			}
		}
		if s.base != "" {
			if resp, err := client.Get(s.base + "/healthz"); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body) // drained for keep-alive; the status decides
				_ = resp.Body.Close()                 // read-only body
				if resp.StatusCode == http.StatusOK {
					s.up = time.Since(p.start)
					_ = os.Remove(addrFile) // read once; the run directory keeps nothing
					return s, nil
				}
			}
		}
		select {
		case <-ctx.Done():
			_, _ = s.stop(ctx) // reaped; the cancellation is the error
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	_, _ = s.stop(ctx) // reaped; the missing health check is the error
	return nil, fmt.Errorf("lvserve not healthy within 30s")
}

// stop drains the server with SIGTERM and reaps it, killing it if the
// drain does not finish.
func (s *server) stop(ctx context.Context) (procRun, error) {
	_ = s.proc.cmd.Process.Signal(syscall.SIGTERM) // an exited process is reaped below either way
	kill := time.AfterFunc(30*time.Second, func() {
		_ = s.proc.cmd.Process.Kill() // wait returns once it is gone
	})
	defer kill.Stop()
	return s.proc.wait(ctx)
}

func (s *server) stats(ctx context.Context) (map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st map[string]any
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// serveSetup times setupProbes server starts to /healthz. A probe's
// exit status is not checked: lvserve answers /healthz before it
// installs its SIGTERM handler, so a probe stopped at once can die of
// the signal instead of draining (see NOTES.md). The measured run
// stops its server long after start and does check the drain.
func serveSetup(ctx context.Context, e env, o *outcome) float64 {
	var ups []float64
	for i := 0; i < setupProbes; i++ {
		s, err := startServer(ctx, e, i)
		o.check(err == nil, "lvserve start: %v", err)
		if err != nil {
			continue
		}
		ups = append(ups, s.up.Seconds())
		_, _ = s.stop(ctx) // reaped; see above for why the status is not checked
	}
	return median(ups)
}

// serveLoad starts a server, sends the schedule open loop over
// workers connections, reads /v1/stats and stops the server.
func serveLoad(ctx context.Context, e env, pop []serveSpec, reqs []serveRequest) (procRun, map[string]any, time.Duration, error) {
	s, err := startServer(ctx, e, setupProbes)
	if err != nil {
		return procRun{}, nil, 0, err
	}
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true}}
	// Requests are due on the schedule whether or not a connection is
	// free: the queue holds the whole schedule so the generator never
	// blocks, and a request's latency counts its wait for a connection.
	queue := make(chan int, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				send(ctx, client, s.base, &pop[reqs[i].spec], &reqs[i], start)
			}
		}()
	}
	for i := range reqs {
		select {
		case <-ctx.Done():
		case <-time.After(time.Until(start.Add(reqs[i].due))):
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	wall := time.Since(start)
	client.CloseIdleConnections()
	st, serr := s.stats(ctx)
	r, werr := s.stop(ctx)
	if serr != nil {
		return r, nil, wall, fmt.Errorf("/v1/stats: %w", serr)
	}
	return r, st, wall, werr
}

// send performs one request, timing it against the run's start.
func send(ctx context.Context, client *http.Client, base string, spec *serveSpec, r *serveRequest, start time.Time) {
	r.sent = time.Since(start)
	defer func() { r.done = time.Since(start) }()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+spec.path, bytes.NewReader(spec.body))
	if err != nil {
		r.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		r.err = err
		return
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadBytes('\n')
	r.first = time.Since(start)
	if err != nil && err != io.EOF {
		r.err = err
		return
	}
	rest, err := io.ReadAll(br)
	r.body, r.err = append(line, rest...), err
}

// checkResponses fails every request that errored, was refused or
// returned a stream without its complete terminator, or whose body
// differs from the first body for its spec. It returns the sorted
// (spec hash, body hash) set's digest.
func checkResponses(o *outcome, pop []serveSpec, reqs []serveRequest) string {
	first := map[int][]byte{}
	for i := range reqs {
		r := &reqs[i]
		o.attempted++
		if err := responseError(&pop[r.spec], r); err != nil {
			o.fail("request %d %s: %v", i, pop[r.spec].path, err)
			r.status = -1 // not a good response
			continue
		}
		if b, ok := first[r.spec]; ok && !bytes.Equal(b, r.body) {
			o.fail("request %d: body differs from the spec's first response", i)
			r.status = -1
			continue
		}
		first[r.spec] = r.body
	}
	var lines []string
	for spec, body := range first {
		lines = append(lines, pop[spec].hash+" "+sha(body))
	}
	sort.Strings(lines)
	return sha([]byte(strings.Join(lines, "\n")))
}

func responseError(spec *serveSpec, r *serveRequest) error {
	switch {
	case r.err != nil:
		return r.err
	case r.status != http.StatusOK:
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	case spec.path == "/v1/sweep" && !sweepComplete(r.body):
		return fmt.Errorf("stream without a complete terminator")
	}
	return nil
}

// sweepComplete reports whether an NDJSON sweep body ends in the
// terminator line with complete:true.
func sweepComplete(body []byte) bool {
	lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n"))
	var end struct {
		Done     bool `json:"done"`
		Complete bool `json:"complete"`
	}
	return json.Unmarshal(lines[len(lines)-1], &end) == nil && end.Done && end.Complete
}

// serveRun is the load both serve modes share: population, schedule,
// the measured server run and the response checks.
type serveRun struct {
	pop   []serveSpec
	reqs  []serveRequest
	proc  procRun
	stats map[string]any
	wall  time.Duration
}

func runServe(ctx context.Context, e env, o *outcome) (*serveRun, error) {
	pop, err := servePopulationFor(e.seed)
	if err != nil {
		return nil, err
	}
	sr := &serveRun{pop: pop, reqs: serveSchedule(e.seed, e.seconds)}
	sr.proc, sr.stats, sr.wall, err = serveLoad(ctx, e, pop, sr.reqs)
	o.check(err == nil, "lvserve run: %v", err)
	digest := checkResponses(o, pop, sr.reqs)
	if e.seconds == pinnedServeSeconds {
		checkDigest(o, "serve", e.seed, digest)
	} else {
		o.note("serve seed=%d seconds=%d digest=%s (pinned only at %d seconds)", e.seed, e.seconds, digest, pinnedServeSeconds)
	}
	return sr, nil
}

func serveE2E(ctx context.Context, e env, o *outcome) error {
	hold, err := startIdleHold(ctx)
	if err != nil {
		return err
	}
	setup := serveSetup(ctx, e, o)
	sr, err := runServe(ctx, e, o)
	hold.stop()
	if err != nil {
		return err
	}
	var lat []float64
	good := 0
	instrs := 0.0
	counted := map[int]bool{}
	for i := range sr.reqs {
		r := &sr.reqs[i]
		lat = append(lat, r.latency().Seconds()*1e3)
		if r.status == http.StatusOK && r.latency() <= serveLimit {
			good++
		}
		if r.status == http.StatusOK && !counted[r.spec] {
			counted[r.spec] = true
			instrs += simulated(r.body)
		}
	}
	wall := sr.wall.Seconds()
	o.note("serve %d requests; p50 and p99 over %d samples", len(sr.reqs), len(lat))
	m := o.metrics
	m["setup_s"] = setup
	m["wall_s"] = wall
	m["sim_mips"] = ratio(instrs/1e6, wall)
	m["cpu_s"] = sr.proc.cpuS
	m["peak_rss_mb"] = sr.proc.rssMB
	m["p50_ms"] = quantile(lat, 0.50)
	m["p99_ms"] = quantile(lat, 0.99)
	m["goodput_rps"] = ratio(float64(good), wall)
	return nil
}

// simulated counts the fault-map runs' useful instructions a response
// reports (Monte Carlo samples × instructions per run).
func simulated(body []byte) float64 {
	total := 0.0
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var row struct {
			Samples int `json:"samples"`
			Result  *struct {
				Samples int `json:"samples"`
			} `json:"result"`
		}
		if json.Unmarshal(line, &row) != nil {
			continue
		}
		if row.Result != nil {
			row.Samples = row.Result.Samples
		}
		total += float64(row.Samples * serveInstr)
	}
	return total
}

func serveTrace(ctx context.Context, e env, o *outcome) error {
	// The load runs held, as in serveE2E.
	hold, err := startIdleHold(ctx)
	if err != nil {
		return err
	}
	sr, err := runServe(ctx, e, o)
	hold.stop() // the in-process phase below runs without it
	if err != nil {
		return err
	}
	m := o.metrics
	var firstLat, repeatLat, late, sweepFirst []float64
	firstReq := map[int]*serveRequest{}
	var order []int // distinct specs in first-send order
	for i := range sr.reqs {
		r := &sr.reqs[i]
		ms := r.latency().Seconds() * 1e3
		late = append(late, (r.sent-r.due).Seconds()*1e3)
		if r.repeat {
			repeatLat = append(repeatLat, ms)
		} else {
			firstLat = append(firstLat, ms)
			firstReq[r.spec] = r
			order = append(order, r.spec)
		}
		if sr.pop[r.spec].path == "/v1/sweep" {
			sweepFirst = append(sweepFirst, (r.first-r.due).Seconds()*1e3)
		}
	}
	m["serve.first_p50_ms"] = median(firstLat)
	m["serve.repeat_p50_ms"] = median(repeatLat)
	m["serve.repeat_share"] = ratio(float64(len(repeatLat)), float64(len(sr.reqs)))
	m["serve.late_ms"] = quantile(late, 0.99)
	m["serve.sweep_first_row_ms"] = median(sweepFirst)
	serverStats(m, sr.stats)

	// In-process and untraced: each distinct spec in first-send order
	// through an engine like lvserve's, checking the served bytes.
	eng := sim.NewEngineBounded(workers, 4096)
	g0 := readGoStats()
	bodies, spans, err := mapSpans(ctx, eng, len(order), func(ctx context.Context, i int) ([]byte, error) {
		return expectedBody(ctx, eng, &sr.pop[order[i]])
	})
	if err != nil {
		return err
	}
	g0.report(m)
	engineMetrics(m, spans)
	hits, misses := eng.MemoStats()
	m["sim.memo_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	var overhead []float64
	for i, spec := range order {
		r := firstReq[spec]
		o.check(r.status != http.StatusOK || bytes.Equal(r.body, bodies[i]), "%s %s: served body differs from in-process EvalRow", sr.pop[spec].path, sr.pop[spec].hash)
		if sr.pop[spec].path == "/v1/eval" {
			overhead = append(overhead, (r.latency()-spans[i].end.Sub(spans[i].start)).Seconds()*1e3)
		}
	}
	m["serve.overhead_ms"] = median(overhead)

	// Traced: the first distinct eval specs rebuilt run by run.
	lt := &layerTimer{}
	start := time.Now()
	baselines := map[sim.RunSpec]cpu.Result{}
	traced := 0
	for i, spec := range order {
		p := &sr.pop[spec]
		if p.path != "/v1/eval" || traced == serveTraceSpecs {
			continue
		}
		traced++
		row := p.rows[0]
		bspec := sim.RunSpec{Scheme: sim.Conventional, Benchmark: row.Benchmark, Op: dvfs.Nominal(),
			WorkSeed: row.Seed, Instructions: row.Instructions, CPU: row.CPU}
		base, ok := baselines[bspec]
		if !ok {
			if base, err = lt.traceRun(ctx, bspec, o); err != nil {
				return err
			}
			baselines[bspec] = base
		}
		got, err := traceRow(ctx, lt, row, base, o)
		if err != nil {
			return err
		}
		want, _ := json.Marshal(got) // a RowResult always marshals
		o.check(bytes.Equal(append(want, '\n'), bodies[i]), "eval %s: traced row differs from EvalRow", p.hash)
	}
	lt.report(m)
	m["trace.overhead_ratio"] = ratio(float64(time.Since(start)-lt.untraced), float64(lt.untraced))
	return nil
}

// serverStats copies lvserve's /v1/stats counters into m.
func serverStats(m map[string]float64, st map[string]any) {
	num := func(path ...string) float64 {
		var v any = st
		for _, k := range path {
			obj, ok := v.(map[string]any)
			if !ok {
				return 0
			}
			v = obj[k]
		}
		f, _ := v.(float64) // absent reads as 0
		return f
	}
	m["serve.cache_hit_ratio"] = ratio(num("cache", "hits"), num("cache", "hits")+num("cache", "misses"))
	m["serve.run_memo_hit_ratio"] = ratio(num("run_memo", "hits"), num("run_memo", "hits")+num("run_memo", "misses"))
	if c, ok := st["computes"].(map[string]any); ok {
		for k := range c {
			m["serve.computes"] += num("computes", k)
		}
	}
	m["serve.shed"] = num("admission", "shed")
	m["serve.expired"] = num("admission", "expired")
}

// expectedBody computes the response lvserve must send for spec: the
// marshalled EvalRow result, or for a sweep one row line per cell and
// the complete terminator.
func expectedBody(ctx context.Context, eng *sim.Engine, spec *serveSpec) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, row := range spec.rows {
		res, err := eng.EvalRow(ctx, row)
		if err != nil {
			return nil, err
		}
		var v any = res
		if spec.path == "/v1/sweep" {
			v = struct {
				Index  int           `json:"index"`
				Result sim.RowResult `json:"result"`
			}{i, res}
		}
		if err := enc.Encode(v); err != nil {
			return nil, err
		}
	}
	if spec.path == "/v1/sweep" {
		n := len(spec.rows)
		fmt.Fprintf(&buf, `{"done":true,"rows":%d,"of":%d,"complete":true}`+"\n", n, n)
	}
	return buf.Bytes(), nil
}
