#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload.
# Invoke from the repository root with the benchmark's flags:
#
#   bash perfbench/run.sh --workload cold-tune --seed 1 --seconds 12 --trace 0
#
# The binary, the Go build cache and the run's temporary stores all live
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout; the
# build's own output goes to standard error, so the result stays the last
# line of standard output.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" --workdir "$out" "$@"
