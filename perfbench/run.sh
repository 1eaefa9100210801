#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   bash perfbench/run.sh --workload flash_hd --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ at
# the repository root: the Go build cache, the binary and the
# per-build digest memory.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
b="$root/.bench_build"
mkdir -p "$b/home" "$b/tmp"
export HOME="$b/home" XDG_CONFIG_HOME="$b/home/.config" XDG_CACHE_HOME="$b/home/.cache" \
	GOCACHE="$b/gocache" GOMODCACHE="$b/gomod" GOPATH="$b/gopath" GOTMPDIR="$b/tmp" TMPDIR="$b/tmp" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -trimpath -o "$b/perfbench" .
cd "$root"
exec "$b/perfbench" "$@"
