#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it (see README.md).
# Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays in .bench_build/ of the checkout.
set -euo pipefail
root=$PWD
if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a repository checkout (go.mod, internal/ and perfbench/ must exist)" >&2
	exit 2
fi
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOMODCACHE=$build/gomod \
	XDG_CONFIG_HOME=$build/config GOENV=off GOFLAGS=-buildvcs=false \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
