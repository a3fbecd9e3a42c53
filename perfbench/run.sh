#!/usr/bin/env bash
# Builds `mpa` and the benchmark program from this checkout's sources, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload dashboard --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and temporary files, daemon logs and
# Chrome traces go under .bench_build/perfbench in the checkout; nothing
# is written outside it. Progress and tables go to stderr; the last line
# of stdout is the result JSON.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/mpa || ! -f perfbench/go.mod ]]; then
	echo "perfbench: $root does not hold the mpa sources (go.mod, cmd/mpa)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go build -o "$out/mpa" ./cmd/mpa >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -mpa "$out/mpa" -out "$out" "$@"
