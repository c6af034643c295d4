#!/usr/bin/env bash
# Builds lotusx-server and the benchmark from this checkout's sources, then
# runs one benchmark run.  Run it from the repository root:
#
#   bash loadbench/run.sh --workload session --seed 1 --seconds 15 --trace 0
#
# Everything it writes stays under loadbench/.work (Go build cache, binaries,
# server logs, span files).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
work="$here/.work"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/lotusx-server" ]; then
	echo "loadbench: no lotusx sources at $root (want go.mod and cmd/lotusx-server)" >&2
	exit 2
fi
mkdir -p "$work/gocache" "$work/tmp" "$work/bin" "$work/out"
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root" && go build -o "$work/bin/lotusx-server" ./cmd/lotusx-server)
(cd "$here" && go build -o "$work/bin/loadbench" .)
if commit="$(git -C "$root" rev-parse HEAD 2>/dev/null)"; then
	export LOADBENCH_COMMIT="$commit"
else
	export LOADBENCH_COMMIT="src-sha256:$(cd "$root" && find cmd internal -name '*.go' -not -name '*_test.go' | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)"
fi
cd "$root"
exec "$work/bin/loadbench" --server "$work/bin/lotusx-server" --out "$work/out" "$@"
