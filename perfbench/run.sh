#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout this script sits in and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload kernels --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ in the checkout; run output goes to .bench_out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" -out "$root/.bench_out" "$@"
