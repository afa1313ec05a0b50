#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it.
# BENCHMARK.json's command is `bash benchmark/run.sh`; the arguments
# (--workload, --seed, --seconds, --trace) go to the benchmark unchanged.
#
# Everything the build leaves behind stays inside the checkout, under
# .bench_build: the binary and, unless GOCACHE is already set, Go's build
# cache. The first run in a fresh checkout compiles the module; later
# runs find the cache warm and link nothing.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d swan ]; then
	echo "benchmark/run.sh: $PWD is not a checkout of the repository (no go.mod, no swan/): nothing to measure" >&2
	exit 1
fi
mkdir -p .bench_build
export GOCACHE="${GOCACHE:-$PWD/.bench_build/gocache}"
export GOTOOLCHAIN=local GOPROXY=off
go build -o .bench_build/hqbench ./benchmark
exec .bench_build/hqbench "$@"
