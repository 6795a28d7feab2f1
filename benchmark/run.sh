#!/usr/bin/env bash
# Launcher named by BENCHMARK.json: builds the benchmark (and, through it,
# the program under test) from source into .bench_build/ inside the
# checkout, then runs it from the checkout root. The Go build cache and
# the compiler's scratch directory are pinned there too, so nothing is
# written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/selfgo-benchmark" .)
cd "$root"
exec "$build/selfgo-benchmark" "$@"
