#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout and runs it with the caller's arguments.
#
#   bash benchmark/run.sh --workload submit-steady --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, scratch, the binary)
# stays under .bench_build/ in the checkout; the run itself writes under
# benchmark/out/. Both are git-ignored.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly

# benchmark/ is a module of its own (benchmark/go.mod) that replaces the
# repository's module with "../", so a directory holding only the
# benchmark fails here, as it should.
go build -C benchmark -o "$build/tetrium-benchmark" .
exec "$build/tetrium-benchmark" "$@"
