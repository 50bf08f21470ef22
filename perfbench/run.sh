#!/usr/bin/env bash
# Builds the release-engine benchmark from this checkout and runs it. Run it
# from the repository root; every argument passes through (see README.md):
#
#   bash perfbench/run.sh --workload census-3d --seed 1 --seconds 35 --trace 0
#
# The build cache, the binary, the results files and the span dumps all
# live under .bench_build/perfbench, so nothing is written outside the
# checkout.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build/perfbench"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" \
	XDG_CONFIG_HOME="$work/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS=-buildvcs=false CGO_ENABLED=0
(cd perfbench && go build -o "$work/perfbench" .)
# The checkout may not be a git repository; never look above it for one.
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
PERFBENCH_COMMIT="$commit" exec "$work/perfbench" --out "$work" "$@"
