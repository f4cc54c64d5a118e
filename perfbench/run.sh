#!/usr/bin/env bash
# Builds the OPERON benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload mega-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, temporary build
# files, binary, traces) stays under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod and perfbench/go.mod)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/operonbench" .)
exec "$out/operonbench" "$@"
