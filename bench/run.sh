#!/usr/bin/env bash
# Launcher of the benchmark: builds bench/ from the checkout's source into
# .bench_build/ (Go's caches and telemetry counters included, so nothing
# outside the checkout is written), then runs it with the arguments given.
#
#   bash bench/run.sh                                  # everything, ~4 min
#   bash bench/run.sh --workload copy-seq --seed 3 --seconds 20 --trace 0
#
# Without the repository around it (no ../go.mod, no ../internal) the build
# fails and so does this script, before anything is measured.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export GOENV=off GOTOOLCHAIN=local XDG_CONFIG_HOME=$build/config

# host.build_s is the cold build of this checkout: compiler cache empty,
# standard library included. Later, warm builds leave it alone.
cold=0
[ -x "$build/bench" ] || cold=1
start=$(date +%s%N)
(cd "$here" && go build -buildvcs=false -o "$build/bench" .)
ns=$(($(date +%s%N) - start))
if [ "$cold" = 1 ]; then
	printf '%d.%09d\n' $((ns / 1000000000)) $((ns % 1000000000)) >"$build/build_s"
fi
BENCH_BUILD_S=$(cat "$build/build_s" 2>/dev/null || echo 0)
export BENCH_BUILD_S

exec "$build/bench" -out "$here/out" "$@"
