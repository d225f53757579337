#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs one
# workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload static|churn --seed N --seconds S --trace 0|1
#
# Everything the build and the run leave behind goes under .bench_build/ in
# the checkout (Go build cache, binary, scratch snapshots and journals).
# XDG_CONFIG_HOME keeps the go command's configuration and local telemetry
# counters there too instead of in the user's home directory. The module
# has no dependency outside the checkout, so the module proxy stays off.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/work" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS= XDG_CONFIG_HOME="$out/config"
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)

cd "$root"
exec "$out/e2ebench" -work "$out/work" "$@"
