#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (Go build cache included, so nothing is written outside the
# checkout) and runs it from that root. All arguments go to the program.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/flashbench" .)
cd "$root"
export FLASHBENCH_DIR="$here"
exec "$build/flashbench" "$@"
