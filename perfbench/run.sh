#!/usr/bin/env bash
# Builds charles-server and the benchmark from this checkout, then runs
# the benchmark with the given arguments. Run it from the repository
# root; everything it builds or writes stays under .bench_build/:
#
#   bash perfbench/run.sh --workload cold_scan --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/charles-server" ]]; then
	echo "perfbench: run from the root of a charles checkout" >&2
	exit 2
fi
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
go build -o "$out/charles-server" ./cmd/charles-server >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" "$@"
