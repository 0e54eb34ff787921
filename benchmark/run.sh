#!/usr/bin/env bash
# Builds the benchmark and the reprod daemon it drives from the tree into
# .bench_build/ at the root of the checkout, then runs the benchmark from
# the root with the arguments given. Everything the Go toolchain writes
# (build cache, temporary files) stays under .bench_build/ too.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(cd "$root" && go build -o "$build/reprod" ./cmd/reprod)
(cd "$here" && go build -o "$build/benchmark" .)

cd "$root"
exec "$build/benchmark" -root "$root" -reprod "$build/reprod" -tmp "$build/tmp" "$@"
