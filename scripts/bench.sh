#!/bin/sh
# Tier-1 benchmark pass. Runs the figure/table Benchmark* suite (one
# iteration per benchmark by default; override with BENCHTIME=3x etc.)
# and records ns/op per benchmark in BENCH_sim.json at the repo root.
#
# BenchmarkFig10GridWorkers/workers=N vs workers=1 is the experiment
# engine's wall-clock scaling; their ratio lands in the JSON as
# fig10_grid_speedup (~1.0 on a single-core host, ~worker-count on a
# wide one).
set -eu

cd "$(dirname "$0")/.."

# Host parallelism, recorded in every BENCH_*.json: scaling-sensitive
# numbers (grid speedup, shard overhead, event throughput) are only
# comparable between hosts of the same width.
cpus=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
gomaxprocs=${GOMAXPROCS:-$cpus}

out=BENCH_sim.json
go test -run '^$' -bench . -benchtime "${BENCHTIME:-1x}" . | tee /dev/stderr | awk -v cpus="$cpus" '
	BEGIN { procs = 1 }
	/^Benchmark/ {
		full = $1
		# go test appends "-GOMAXPROCS" only when it is > 1.
		if (match(full, /-[0-9]+$/)) procs = substr(full, RSTART + 1)
		name = full; sub(/-[0-9]+$/, "", name)
		if (!(name in ns)) order[n++] = name
		ns[name] = $3
	}
	END {
		w1 = "BenchmarkFig10GridWorkers/workers=1"
		wN = "BenchmarkFig10GridWorkers/workers=" procs
		# On a single-core host both sub-benchmarks run at one worker and
		# go test disambiguates the second as "...#01".
		if (!(wN in ns) && ((wN "#01") in ns)) wN = wN "#01"
		printf "{\n"
		printf "  \"gomaxprocs\": %s,\n", procs
		printf "  \"cpus\": %s,\n", cpus
		if ((w1 in ns) && (wN in ns) && ns[wN] > 0)
			printf "  \"fig10_grid_speedup\": %.2f,\n", ns[w1] / ns[wN]
		for (i = 0; i < n; i++)
			printf "  \"%s\": {\"ns_per_op\": %s}%s\n", order[i], ns[order[i]], (i < n - 1 ? "," : "")
		printf "}\n"
	}
' >"$out"
echo "bench: wrote $out"

# Second pass: the fault-injection robustness numbers. The two
# BenchmarkInjectRecovery sub-benchmarks run the identical simulation
# with injection off and on and report the SIMULATED recovery time
# (RecoveryCycles at the operating point's clock period) as a
# recovery-ns metric; the paired on-minus-off delta is the
# detection/recovery overhead. Wall-clock ns/op is recorded per
# sub-benchmark for reference but never subtracted — scheduler noise
# between the two runs dwarfs the overhead and used to produce a
# negative number. The simulated delta is exact, non-negative, and
# byte-identical across runs of the same seeds.
# BenchmarkChaosCampaign's ns/op is the cost of one ten-epoch back-off
# campaign.
out=BENCH_inject.json
go test -run '^$' -bench 'BenchmarkInjectRecovery|BenchmarkChaosCampaign' -benchtime "${BENCHTIME:-1x}" . | tee /dev/stderr | awk -v procs="$gomaxprocs" -v cpus="$cpus" '
	/^Benchmark/ {
		name = $1; sub(/-[0-9]+$/, "", name)
		if (!(name in ns)) order[n++] = name
		ns[name] = $3
		for (i = 4; i <= NF; i++)
			if ($i == "recovery-ns") rec[name] = $(i - 1)
	}
	END {
		off = "BenchmarkInjectRecovery/inject=off"
		on = "BenchmarkInjectRecovery/inject=on"
		camp = "BenchmarkChaosCampaign"
		printf "{\n"
		printf "  \"gomaxprocs\": %s,\n", procs
		printf "  \"cpus\": %s,\n", cpus
		if ((off in rec) && (on in rec)) {
			d = rec[on] - rec[off]
			if (d < 0) d = 0
			printf "  \"recovery_overhead_ns_per_op\": %.0f,\n", d
		}
		if (camp in ns)
			printf "  \"campaign_ns_per_op\": %.0f,\n", ns[camp]
		for (i = 0; i < n; i++)
			printf "  \"%s\": {\"ns_per_op\": %s}%s\n", order[i], ns[order[i]], (i < n - 1 ? "," : "")
		printf "}\n"
	}
' >"$out"
echo "bench: wrote $out"

# Third pass: linter latency. Runs lvlint over the whole module twice —
# once against an empty .lvlint-cache (cold: full parse + typecheck +
# every registered analyzer) and once against the cache the cold run just
# filled (warm: one content-hash probe and a cached-JSON replay). The
# binary is built once so both numbers measure analysis, not compilation.
# A per-check sweep then times each analyzer alone (cold, cache off) so a
# regression in one check shows up as its own number instead of hiding
# in the aggregate; CI holds every entry under a 10 s budget.
out=BENCH_lint.json
lintbin=$(mktemp -t lvlint.XXXXXX)
trap 'rm -f "$lintbin"' EXIT
go build -o "$lintbin" ./cmd/lvlint

now_ms() { date +%s%3N; }

rm -rf .lvlint-cache
t0=$(now_ms)
"$lintbin" ./...
t1=$(now_ms)
"$lintbin" ./...
t2=$(now_ms)

per_check=""
for check in $("$lintbin" -list | awk '{print $1}'); do
	c0=$(now_ms)
	"$lintbin" -no-cache -checks "$check" ./...
	c1=$(now_ms)
	[ -n "$per_check" ] && per_check="$per_check, "
	per_check="$per_check\"$check\": $((c1 - c0))"
done

printf '{\n  "gomaxprocs": %s,\n  "cpus": %s,\n  "lvlint_cold_ms": %s,\n  "lvlint_warm_ms": %s,\n  "per_check_ms": {%s}\n}\n' \
	"$gomaxprocs" "$cpus" "$((t1 - t0))" "$((t2 - t1))" "$per_check" >"$out"
echo "bench: wrote $out"

# Fourth pass: the distributed-execution harness numbers.
# BenchmarkShardOverhead runs the same near-free grid in-process and
# under two worker subprocesses; their ratio is the fixed
# spawn/handshake/framing cost a real sharded campaign amortizes over
# expensive simulation rows, recorded as shard_overhead_ratio.
# BenchmarkResumeLatency is the -resume startup cost on a finished
# checkpoint (load + grid-hash verify + prefill + final flush),
# recorded as resume_latency_ns_per_op.
out=BENCH_dist.json
go test -run '^$' -bench 'BenchmarkShardOverhead|BenchmarkResumeLatency' -benchtime "${BENCHTIME:-1x}" ./internal/dist/ | tee /dev/stderr | awk -v procs="$gomaxprocs" -v cpus="$cpus" '
	/^Benchmark/ {
		name = $1; sub(/-[0-9]+$/, "", name)
		if (!(name in ns)) order[n++] = name
		ns[name] = $3
	}
	END {
		local = "BenchmarkShardOverhead/local"
		sharded = "BenchmarkShardOverhead/shards=2"
		resume = "BenchmarkResumeLatency"
		printf "{\n"
		printf "  \"gomaxprocs\": %s,\n", procs
		printf "  \"cpus\": %s,\n", cpus
		if ((local in ns) && (sharded in ns) && ns[local] > 0)
			printf "  \"shard_overhead_ratio\": %.2f,\n", ns[sharded] / ns[local]
		if (resume in ns)
			printf "  \"resume_latency_ns_per_op\": %.0f,\n", ns[resume]
		for (i = 0; i < n; i++)
			printf "  \"%s\": {\"ns_per_op\": %s}%s\n", order[i], ns[order[i]], (i < n - 1 ? "," : "")
		printf "}\n"
	}
' >"$out"
echo "bench: wrote $out"

# Fifth pass: the event-driven hierarchy. BenchmarkEventKernel is the
# raw kernel schedule/dispatch cost per event and BenchmarkPortRoundTrip
# the cost of one typed-port delivery (both pinned at a fixed count so
# the per-event number is stable even under the default 1x benchtime);
# BenchmarkHierContention is the shared-L2 contention experiment — two
# FFW+BBR cores on distinct voltage domains — reporting whole-run ns/op
# and the L2's mean contention wait. (Its events per wall second are not
# recorded: that wall time is almost all core-model work, not kernel.)
out=BENCH_event.json
{
	go test -run '^$' -bench 'BenchmarkEventKernel|BenchmarkPortRoundTrip' -benchtime 10000x ./internal/event/
	go test -run '^$' -bench 'BenchmarkHierContention' -benchtime "${BENCHTIME:-1x}" .
} | tee /dev/stderr | awk -v procs="$gomaxprocs" -v cpus="$cpus" '
	/^Benchmark/ {
		name = $1; sub(/-[0-9]+$/, "", name)
		ns[name] = $3
		for (i = 4; i <= NF; i++) {
			if ($i == "L2-wait-cy") wait[name] = $(i - 1)
		}
	}
	END {
		kern = "BenchmarkEventKernel"
		port = "BenchmarkPortRoundTrip"
		cont = "BenchmarkHierContention"
		printf "{\n"
		printf "  \"gomaxprocs\": %s,\n", procs
		printf "  \"cpus\": %s,\n", cpus
		if ((kern in ns) && ns[kern] > 0) {
			printf "  \"kernel_ns_per_event\": %s,\n", ns[kern]
			printf "  \"kernel_events_per_sec\": %.0f,\n", 1e9 / ns[kern]
		}
		if (port in ns)
			printf "  \"port_ns_per_delivery\": %s,\n", ns[port]
		if (cont in wait)
			printf "  \"contention_l2_wait_cycles\": %s,\n", wait[cont]
		printf "  \"contention_ns_per_op\": %s\n", (cont in ns) ? ns[cont] : 0
		printf "}\n"
	}
' >"$out"
echo "bench: wrote $out"

# Sixth pass: the serving layer, against a synthetic (near-free) row
# computation so the numbers measure lvserve's own admission, caching
# and streaming, not the simulator. BenchmarkServeSaturation drives
# 2x(active+queue) clients with distinct specs and a fixed 500us row
# cost — the queue genuinely backs up, so p50/p99 include queue wait
# and shed-rate is the fraction refused with 503. BenchmarkServeCached
# replays one spec from many clients: the coalesce/replay path, with
# the steady-state cache hit ratio. The iteration count is pinned (not
# the default 1x) so the percentiles have a stable sample size.
out=BENCH_serve.json
go test -run '^$' -bench 'BenchmarkServeSaturation|BenchmarkServeCached' -benchtime "${SERVE_BENCHTIME:-2000x}" ./internal/serve/ | tee /dev/stderr | awk -v procs="$gomaxprocs" -v cpus="$cpus" '
	/^Benchmark/ {
		name = $1; sub(/-[0-9]+$/, "", name)
		if (!(name in ns)) order[n++] = name
		ns[name] = $3
		for (i = 4; i <= NF; i++) {
			if ($i == "req/s") rps[name] = $(i - 1)
			if ($i == "p50-us") p50[name] = $(i - 1)
			if ($i == "p99-us") p99[name] = $(i - 1)
			if ($i == "shed-rate") shed[name] = $(i - 1)
			if ($i == "hit-ratio") hit[name] = $(i - 1)
		}
	}
	END {
		sat = "BenchmarkServeSaturation"
		cac = "BenchmarkServeCached"
		printf "{\n"
		printf "  \"gomaxprocs\": %s,\n", procs
		printf "  \"cpus\": %s,\n", cpus
		if (sat in rps) printf "  \"saturation_req_per_sec\": %.0f,\n", rps[sat]
		if (sat in p50) printf "  \"saturation_p50_us\": %s,\n", p50[sat]
		if (sat in p99) printf "  \"saturation_p99_us\": %s,\n", p99[sat]
		if (sat in shed) printf "  \"saturation_shed_rate\": %s,\n", shed[sat]
		if (cac in hit) printf "  \"cache_hit_ratio\": %s,\n", hit[cac]
		printf "  \"cached_req_per_sec\": %.0f\n", (cac in rps) ? rps[cac] : 0
		printf "}\n"
	}
' >"$out"
echo "bench: wrote $out"
