#!/usr/bin/env bash
# Builds respect-serve and the benchmark from the source tree it is run
# in, then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash respectbench/run.sh --workload zoo-hit --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in that tree,
# the Go build cache included.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/respect-serve || ! -f respectbench/go.mod ]]; then
	echo "respectbench: run from the root of a RESPECT source tree" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$out/respect-serve" ./cmd/respect-serve >&2
(cd respectbench && go build -o "$out/respectbench" .) >&2
exec "$out/respectbench" --serve "$out/respect-serve" --out "$out" "$@"
