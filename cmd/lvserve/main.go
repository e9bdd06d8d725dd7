// Command lvserve runs the hardened simulation service: the sim run
// surface (/v1/eval, /v1/sweep, /v1/chaos, /v1/hier, /v1/die) over
// canonical JSON specs, with a coalescing response cache, bounded
// admission (503 + Retry-After when saturated), per-client concurrency
// caps, and graceful drain on SIGTERM — admitted work finishes, new
// work is shed, NDJSON streams always end in a clean terminator line.
//
// Usage:
//
//	lvserve -addr :8080
//	lvserve -addr 127.0.0.1:0 -addr-file /tmp/lvserve.addr   # ephemeral port
//	lvserve -workers 2 -max-queue 8 -deadline 30s
//	lvserve -smoke http://127.0.0.1:8080                     # smoke client
//	lvserve -cpuprofile cpu.pprof                            # profile until SIGTERM drains
//
// The -smoke mode is the verify.sh acceptance client: it fires N
// concurrent identical sweep requests, asserts every response body is
// byte-identical, and prints "sha256=<hex> computes=<n>" — the hash of
// the shared body and how many times the server actually simulated it.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/prof"
	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lvserve: ")
	var (
		addr       = flag.String("addr", ":8080", "listen address (host:port; port 0 picks one)")
		addrFile   = flag.String("addr-file", "", "write the bound address to this file once listening")
		workers    = flag.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
		maxActive  = flag.Int("max-active", 0, "requests computing at once (0 = worker count)")
		maxQueue   = flag.Int("max-queue", 0, "requests waiting for a run slot (0 = 4x max-active); beyond this the server sheds 503")
		perClient  = flag.Int("per-client", 0, "per-X-Client concurrent request cap, scoped under the remote host (0 = max-active+max-queue, negative = unlimited)")
		perHost    = flag.Int("per-host", 0, "per-remote-host concurrent request cap, immune to X-Client rotation (0 = max-active+max-queue, negative = unlimited)")
		sweepCells = flag.Int("max-sweep-cells", 0, "cap on one sweep's cell count, refused with 400 before allocation (0 = 4096, negative = unlimited)")
		deadline   = flag.Duration("deadline", 0, "default per-request deadline (0 = none)")
		maxDead    = flag.Duration("max-deadline", 0, "clamp on client-supplied deadlines (0 = unclamped)")
		retryAfter = flag.Duration("retry-after", 0, "Retry-After hint on shed responses (0 = 1s)")
		cacheEnt   = flag.Int("cache-entries", 0, "response cache entry cap (0 = 4096)")
		cacheMB    = flag.Int64("cache-mb", 0, "response cache byte cap in MiB (0 = 64)")
		runCache   = flag.Int("run-cache", 0, "engine run-memo entry cap (0 = 4096)")
		drainGrace = flag.Duration("drain-grace", 0, "how long drain lets admitted work finish (0 = 30s, negative = forever)")
		profile    = flag.String("profile", "", "JSON file with a custom workload profile to register")
		smoke      = flag.String("smoke", "", "run as smoke client against this base URL instead of serving")
		smokeN     = flag.Int("smoke-clients", 3, "concurrent identical clients in -smoke mode")
		smokeInstr = flag.Uint64("smoke-n", 20_000, "instructions per smoke sweep cell")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the server to `file`, stopped after the drain")
	)
	flag.Parse()

	if *profile != "" {
		data, err := os.ReadFile(*profile)
		if err != nil {
			log.Fatal(err)
		}
		p, err := workload.FromJSON(data)
		if err != nil {
			log.Fatal(err)
		}
		if err := workload.Register(p); err != nil {
			log.Fatal(err)
		}
	}

	if *smoke != "" {
		if err := runSmoke(*smoke, *smokeN, *smokeInstr); err != nil {
			log.Fatal(err)
		}
		return
	}

	// The profile covers serving through the drain; the error exits
	// below (log.Fatal) end the process without it.
	stopProfile := func() error { return nil }
	if *cpuprofile != "" {
		var err error
		if stopProfile, err = prof.StartCPU(*cpuprofile); err != nil {
			log.Fatal(err)
		}
	}

	s := serve.New(serve.Config{
		Workers:         *workers,
		MaxActive:       *maxActive,
		MaxQueue:        *maxQueue,
		PerClient:       *perClient,
		PerHost:         *perHost,
		MaxSweepCells:   *sweepCells,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDead,
		RetryAfter:      *retryAfter,
		CacheEntries:    *cacheEnt,
		CacheBytes:      *cacheMB << 20,
		RunCacheEntries: *runCache,
		DrainGrace:      *drainGrace,
	})

	// Install the SIGTERM/SIGINT handler before binding: once the
	// address is published (and /healthz answers), a signal must drain
	// the server, not kill it with the default action.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("listening on %s", ln.Addr())

	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful drain: shed the queue and new arrivals, let admitted work
	// finish (streams close with their terminator line), then close the
	// listener. A second signal is not needed — the drain grace bounds
	// how long this takes.
	log.Print("draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		log.Fatalf("drain: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	if err := stopProfile(); err != nil {
		log.Fatalf("-cpuprofile: %v", err)
	}
	log.Print("drained")
}

// smokeBody is the fixed smoke sweep: two schemes at two voltages, one
// fault map, sized by -smoke-n. Both verify.sh server runs (workers 1
// and 2) receive this exact body, so their response hashes must match.
func smokeBody(instr uint64) string {
	return fmt.Sprintf(
		`{"schemes":["8T","DefectFree"],"benchmarks":["basicmath"],"mvs":[400,440],"maps":1,"seed":1,"instructions":%d}`,
		instr)
}

// runSmoke fires clients concurrent identical sweeps, asserts the
// bodies are byte-identical and every row arrived, and prints the
// shared body's hash plus the server's sweep compute counter.
func runSmoke(base string, clients int, instr uint64) error {
	base = strings.TrimRight(base, "/")
	body := smokeBody(instr)
	bodies := make([][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, base+"/v1/sweep", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-Client", fmt.Sprintf("smoke-%d", i))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("client %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			bodies[i] = data
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for i := 1; i < clients; i++ {
		if string(bodies[i]) != string(bodies[0]) {
			return fmt.Errorf("client %d body differs from client 0:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	if err := checkComplete(bodies[0]); err != nil {
		return err
	}

	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	fmt.Printf("sha256=%x computes=%d\n", sha256.Sum256(bodies[0]), st.Computes["serve.sweep"])
	return nil
}

// checkComplete verifies the stream's terminator claims completeness.
func checkComplete(body []byte) error {
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) == 0 {
		return errors.New("empty stream")
	}
	var end struct {
		Done     bool `json:"done"`
		Rows     int  `json:"rows"`
		Of       int  `json:"of"`
		Complete bool `json:"complete"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &end); err != nil {
		return fmt.Errorf("terminator: %w", err)
	}
	if !end.Done || !end.Complete || end.Rows != end.Of {
		return fmt.Errorf("stream incomplete: %+v", end)
	}
	return nil
}
