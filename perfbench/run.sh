#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs one workload:
#
#   bash perfbench/run.sh --workload figures|dispatch|serve --seed N --seconds S --trace 0|1
#
# Build outputs, the Go build cache and trace files stay under .bench_build
# at the checkout root. The benchmark runs with GOMAXPROCS set to the CPU
# count. It fails, printing no result, outside a full checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
cd "$root/perfbench"
go build -o "$out/perfbench" . >&2
cd "$root"
GOMAXPROCS="$(nproc)" exec "$out/perfbench" -trace-dir "$out" "$@"
