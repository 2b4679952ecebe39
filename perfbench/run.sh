#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it, forwarding every argument:
#
#   bash perfbench/run.sh --workload circuit-raycast --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and Go's own configuration all live
# under .bench_build at the checkout root, so the run writes nothing
# outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# Stop git at the checkout root: a checkout that is not a repository
# reports no commit rather than the commit of a repository around it.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
