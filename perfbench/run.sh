#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload serve-poll --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, wedge and
# span artifacts) stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a checkout that holds go.mod and perfbench/" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path" "$out/go-config"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/go-config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd perfbench && go build -buildvcs=false -trimpath -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" -artifacts "$out/perfbench" "$@"
