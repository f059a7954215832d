#!/usr/bin/env bash
# Builds the X3 benchmark driver from the checkout's sources and runs it.
# Run from the repository root; every argument is passed through:
#
#   bash _perfbench/run.sh --workload serve_read --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, temporary stores, result
# reports and profiles.
set -euo pipefail
root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/tmp" "$work/home"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomodcache" GOPATH="$work/gopath" \
	GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" HOME="$work/home" \
	XDG_CONFIG_HOME="$work/home/.config" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off \
	GOTELEMETRY=off CGO_ENABLED=0 GIT_CEILING_DIRECTORIES="$(dirname "$root")"
X3PERF_GIT_REV=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export X3PERF_GIT_REV
(cd "$root/_perfbench" && go build -o "$work/x3perf" .)
exec "$work/x3perf" -out "$work/perfbench" "$@"
