#!/usr/bin/env bash
# Builds perfbench from this checkout's source and runs it, keeping every
# file it writes (Go build cache, zoo weights, results) under
# .bench_build/ at the checkout root. Run from the checkout root:
#
#   bash perfbench/run.sh --workload fullspace --seed 1 --seconds 15 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

if [[ ! -f "$root/go.mod" ]]; then
	echo "perfbench: $root holds no ranger source (go.mod missing)" >&2
	exit 1
fi

mkdir -p "$build/tmp" "$build/results"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOENV=off GOTELEMETRY=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-mod=readonly RANGER_CACHE="$build/zoo"

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/results" "$@"
