#!/bin/bash
# Builds perfbench from this checkout and runs it with the given arguments.
# Run from the repository root, e.g.
#
#	bash perfbench/run.sh --workload headline_cold --seed 1 --seconds 25 --trace 0
#	bash perfbench/run.sh -out report.json
#
# Everything the build and the runs write (Go's build cache and telemetry
# counters, the binary, temporary spill directories) stays under
# .bench_build/ in the root.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench/run.sh: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # Go's local telemetry counters
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
