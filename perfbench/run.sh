#!/usr/bin/env bash
# Builds tcastd, tcastfigs and the perfbench program from the checkout's
# sources into .bench_build/, then runs perfbench with the given flags:
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file it writes (Go build cache,
# binaries, run outputs, span dumps) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go build -o "$out/bin/" ./cmd/tcastd ./cmd/tcastfigs
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
