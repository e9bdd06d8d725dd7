#!/usr/bin/env bash
# Builds lvsim, lvchaos, lvserve and the perfbench command from this
# checkout's source, then runs perfbench with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload grid --seed 1 --seconds 40 --trace 0
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/lvsim ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ and perfbench/ must be here)" >&2
	exit 2
fi

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp"
# Every build artefact, and the go command's own config and telemetry
# files, stay inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/bin/" ./cmd/lvsim ./cmd/lvchaos ./cmd/lvserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" "$@"
