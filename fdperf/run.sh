#!/usr/bin/env bash
# Builds the fdperf benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash fdperf/run.sh --workload qr-mesh --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache and settings, the binary and the
# reports. The module's vendor/ directory supplies every dependency, so
# nothing is fetched. Outside a checkout of the module the script exits
# non-zero without printing a result.
set -euo pipefail

if [ ! -f go.mod ]; then
	echo "fdperf/run.sh: run it from the root of the module (no go.mod here)" >&2
	exit 1
fi

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOFLAGS=-mod=vendor GOTOOLCHAIN=local GOENV=off
export XDG_CONFIG_HOME="$out/config" # the go command's telemetry counters land here

# The report names the commit only when this directory is itself the top of
# a git work tree (git may not look above it); a plain source tree reports
# "unknown".
commit=unknown
if top=$(GIT_CEILING_DIRECTORIES="$(dirname "$(pwd -P)")" git rev-parse --show-toplevel 2>/dev/null) &&
	[ "$top" = "$(pwd -P)" ]; then
	commit=$(git rev-parse HEAD)
	git diff --quiet HEAD 2>/dev/null || commit="$commit+dirty"
fi
go build -buildvcs=false -ldflags "-X main.buildCommit=$commit" -o "$out/fdperf" ./fdperf >&2
exec "$out/fdperf" "$@"
