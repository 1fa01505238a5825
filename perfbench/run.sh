#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload kv-serve --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under $CARGO_TARGET_DIR (default
# .bench_build), including the Go build cache and the traced runs' spans.
set -euo pipefail

root=$(pwd)
dir=${CARGO_TARGET_DIR:-.bench_build}
case $dir in
/*) out=$dir ;;
*) out=$root/$dir ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=-buildvcs=false GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --trace-dir "$out/trace" "$@"
