#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# keeping everything the build and the run write inside the checkout:
# the Go build cache, the binary and the scratch corpora all live under
# .bench_build/, which .gitignore names.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
