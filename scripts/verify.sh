#!/bin/sh
# Tier-1 verification gate. Run from the repository root.
#
#   build  — everything compiles, including examples and testdata-free cmds
#   vet    — stdlib vet checks
#   lvlint — the repo's own analyzers (detflow, unitcheck, unitflow,
#            exhaustive, errdrop, lockguard, lockbalance, deferloop,
#            nopanic, the concflow concurrency suite: goleak,
#            ctxflow, chanflow, wgbalance, sharedcapture, and the
#            protocol checks: eventflow, serveflow, frameflow,
#            hotalloc); nonzero exit on any finding
#   test   — full unit/integration suite, shuffled (-shuffle=on) so
#            order-dependent tests cannot hide behind file order
#   race   — race detector on the packages with shared mutable state
#            (the run scheduler, the simulator fan-out, the cache model
#            it drives, the fault-injection/back-off layers the chaos
#            campaigns exercise concurrently, the distributed
#            supervisor with its worker subprocesses, and the
#            event-driven hierarchy whose per-run engines must stay
#            isolated under the parallel grid)
#   fuzz   — short campaigns on the fuzz targets (serialization, fault
#            map mutation, FFW stored-pattern round trip, checkpoint
#            decode/encode, canonical spec hashing); regressions land
#            in the checked-in corpus
#   prof   — -cpuprofile observes without perturbing: the same small
#            lvsim grid, lvchaos -hierarchy campaign, quick lvreport
#            figures and lvdie sweep print identical output with and
#            without the flag, and each profile file is written (the
#            serve smoke below also profiles one server through its
#            drain)
#   serve  — lvserve smoke: three concurrent identical clients against
#            a live server at two worker counts must get byte-identical
#            bodies from exactly one simulation each (coalescing), and
#            SIGTERM must drain to a zero exit, also when it arrives
#            the moment the server publishes its address; the
#            workers=2 server runs with -cpuprofile and must leave a
#            non-empty profile behind
set -eu

cd "$(dirname "$0")/.."

echo '== go build ./...'
go build ./...

echo '== go vet ./...'
go vet ./...

echo '== go run ./cmd/lvlint ./...'
go run ./cmd/lvlint ./...

echo '== go test -shuffle=on ./...'
go test -shuffle=on ./...

echo '== go test -race ./internal/engine/... ./internal/sim/... ./internal/cache/... ./internal/inject/... ./internal/dvfs/... ./internal/dist/... ./internal/event/... ./internal/hier/... ./internal/serve/...'
go test -race ./internal/engine/... ./internal/sim/... ./internal/cache/... ./internal/inject/... ./internal/dvfs/... ./internal/dist/... ./internal/event/... ./internal/hier/... ./internal/serve/...

FUZZTIME="${FUZZTIME:-3s}"
echo "== go test -fuzz (${FUZZTIME} each)"
go test -run '^$' -fuzz '^FuzzUnmarshalBinary$' -fuzztime "$FUZZTIME" ./internal/faultmap/
go test -run '^$' -fuzz '^FuzzUnmarshalCompressed$' -fuzztime "$FUZZTIME" ./internal/faultmap/
go test -run '^$' -fuzz '^FuzzMapMutation$' -fuzztime "$FUZZTIME" ./internal/faultmap/
go test -run '^$' -fuzz '^FuzzWindowRoundTrip$' -fuzztime "$FUZZTIME" ./internal/ffw/
go test -run '^$' -fuzz '^FuzzCheckpointRoundTrip$' -fuzztime "$FUZZTIME" ./internal/dist/
go test -run '^$' -fuzz '^FuzzRunSpecCanonicalHash$' -fuzztime "$FUZZTIME" ./internal/sim/

echo '== lvsim/lvchaos/lvreport/lvdie -cpuprofile (stdout identical with and without the profile)'
profdir=$(mktemp -d -t lvsim-prof.XXXXXX)
trap 'rm -rf "$profdir"' EXIT
# profcheck NAME ARGS...: run the built command NAME twice, plain and
# with -cpuprofile; stdout must match and the profile must be written.
profcheck() {
	name=$1
	shift
	"$profdir/$name" "$@" >"$profdir/$name-plain.txt"
	"$profdir/$name" "$@" -cpuprofile "$profdir/$name.pprof" >"$profdir/$name-profiled.txt"
	cmp "$profdir/$name-plain.txt" "$profdir/$name-profiled.txt"
	if [ ! -s "$profdir/$name.pprof" ]; then
		echo "$name: -cpuprofile wrote no profile" >&2
		exit 1
	fi
}
for cmd in lvsim lvchaos lvreport lvdie; do
	go build -o "$profdir/$cmd" "./cmd/$cmd"
done
profcheck lvsim -mv 400 -bench crc32,qsort -n 20000 -maps 2
profcheck lvchaos -hierarchy -bench qsort,crc32 -dies 2 -epochs 4 -epoch-n 20000
profcheck lvreport -fig 3 -yield -quick
profcheck lvdie -bench crc32 -dies 2 -n 20000
rm -rf "$profdir"
echo "cpuprofile: lvsim, lvchaos, lvreport and lvdie output identical, profiles written"

echo '== lvserve smoke (coalescing, determinism across worker counts, graceful drain)'
servebin=$(mktemp -t lvserve.XXXXXX)
addrfile=$(mktemp -t lvserve-addr.XXXXXX)
serveprof=$(mktemp -t lvserve-prof.XXXXXX)
servepid=""
cleanup_serve() {
	[ -n "$servepid" ] && kill "$servepid" 2>/dev/null || true
	rm -f "$servebin" "$addrfile" "$serveprof"
}
trap cleanup_serve EXIT
go build -o "$servebin" ./cmd/lvserve
smoke_sha=""
for w in 1 2; do
	rm -f "$addrfile"
	# The workers=2 server also profiles itself; the profile is written
	# after the drain, so it must be non-empty once the server exits.
	profflag=""
	if [ "$w" = 2 ]; then
		rm -f "$serveprof"
		profflag="-cpuprofile $serveprof"
	fi
	# shellcheck disable=SC2086 # profflag is empty or two words
	"$servebin" -addr 127.0.0.1:0 -addr-file "$addrfile" -workers "$w" $profflag &
	servepid=$!
	i=0
	while [ ! -s "$addrfile" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "lvserve: server never bound" >&2
			exit 1
		fi
		sleep 0.1
	done
	line=$("$servebin" -smoke "http://$(cat "$addrfile")")
	echo "workers=$w $line"
	# A thundering herd of three identical clients must simulate once.
	case "$line" in
	*"computes=1") ;;
	*)
		echo "lvserve: herd did not coalesce: $line" >&2
		exit 1
		;;
	esac
	# SIGTERM must drain cleanly: zero exit, no truncated stream (the
	# smoke client already checked the terminator before this point).
	kill -TERM "$servepid"
	wait "$servepid"
	servepid=""
	if [ -n "$profflag" ] && [ ! -s "$serveprof" ]; then
		echo "lvserve: -cpuprofile wrote no profile after the drain" >&2
		exit 1
	fi
	sha=${line%% *}
	if [ -z "$smoke_sha" ]; then
		smoke_sha=$sha
	elif [ "$smoke_sha" != "$sha" ]; then
		echo "lvserve: response bodies differ across worker counts" >&2
		exit 1
	fi
done

# A SIGTERM sent the moment the address file appears must still drain
# to a zero exit: the handler is installed before the listener binds.
# The wait spins without sleeping so the signal lands as close to the
# address write as the shell can manage.
rm -f "$addrfile"
"$servebin" -addr 127.0.0.1:0 -addr-file "$addrfile" &
servepid=$!
i=0
while [ ! -s "$addrfile" ]; do
	i=$((i + 1))
	if [ "$i" -gt 1000000 ]; then
		echo "lvserve: server never bound" >&2
		exit 1
	fi
done
kill -TERM "$servepid"
if ! wait "$servepid"; then
	echo "lvserve: SIGTERM right after bind did not exit 0" >&2
	exit 1
fi
servepid=""
echo "early SIGTERM: drained, exit 0"

echo 'verify: all gates passed'
