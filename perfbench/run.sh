#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it
# with the given arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload drive --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the span files of traced runs stay in
# .bench_build (or $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --out "$build" "$@"
