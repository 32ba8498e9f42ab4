#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it
# with the arguments given (see BENCHMARK.json for the command line).
# Everything the build and the run write — Go's build cache, the binary,
# snapshot files — stays under .bench_build in that checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/dnsserver ]; then
	echo "bench/run.sh: run from the root of a checkout of the repository (no go.mod here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config" # the go command keeps its telemetry counters under the user's config directory

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
