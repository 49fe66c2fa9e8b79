#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload grid_cold --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The binary and everything the Go tool
# writes (build cache, temporary files, module path, configuration and
# telemetry) live under .bench_build/ in the checkout, so the benchmark
# writes nothing outside it. Without the repository's sources beside it
# the build fails and the script exits non-zero before printing a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
