#!/usr/bin/env bash
# Builds the end-to-end serving benchmark from source and runs it:
#
#   bash e2ebench/run.sh --workload hit-zipf --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, temporaries) goes
# under .bench_build at the repository root. See doc.go for the workloads
# and metrics.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS="-buildvcs=false" GOTOOLCHAIN=local GOWORK=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
