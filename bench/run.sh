#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload cli-mixed --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the toolchain's config and telemetry, and the
# binary all go to .bench_build/ in the repository root, so nothing is
# written outside the checkout. The first run fills the cache (under a
# minute on two cores).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
