#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it with the given flags, e.g.
#   bash benchmark/run.sh --workload fig2-util-sweep --seed 1 --seconds 25 --trace 0
# Everything the go command writes (build cache, module cache, its user
# config and telemetry) stays in .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$here" build -o "$out/hostbench" .
exec "$out/hostbench" "$@"
