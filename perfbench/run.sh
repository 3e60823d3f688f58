#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload.
#
#   bash perfbench/run.sh --workload search_paper --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays under
# .bench_build/ in that root: the Go build cache and temporary files, the
# binary, per-run scratch files and the content cache used by the cross-run
# determinism check.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the podnas repository root (go.mod and perfbench/go.mod must exist)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
# Not exec: the benchmark reads RUSAGE_CHILDREN for its worker processes'
# peak RSS, and an exec'd process would inherit the compiler's usage too.
"$out/perfbench" -dir "$out" "$@"
