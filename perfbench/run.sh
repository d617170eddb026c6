#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload check-mix --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write —
# the Go build cache, the binary, scratch and trace files — stays under
# .bench_build in that root. Without the repository's go.mod next to
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gotmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOTELEMETRY=off TMPDIR="$out/gotmp"

go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
