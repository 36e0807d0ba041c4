#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, e.g.:
#
#   bash perfbench/run.sh --workload eval-sweep --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the run's scratch files (shard
# caches, span files) go under $CARGO_TARGET_DIR when it is set, else
# under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" --out "$build" "$@"
