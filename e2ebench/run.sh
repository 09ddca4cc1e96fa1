#!/usr/bin/env bash
# Builds aiqlserver and the benchmark driver from the checkout this script
# sits in, then runs one benchmark workload:
#
#   bash e2ebench/run.sh --workload live --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds, generates or
# writes stays under $CARGO_TARGET_DIR (default .bench_build) in that root.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)

# Keep the Go toolchain's caches and config inside the build directory and
# never reach for the network: the benchmark depends on the repository only.
export GOCACHE="$build/go/cache" GOMODCACHE="$build/go/mod" GOPATH="$build/go/path"
export GOTMPDIR="$build/go/tmp" XDG_CONFIG_HOME="$build/go/config" HOME="$build/go/home"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod GOTELEMETRY=off
mkdir -p "$GOCACHE" "$GOMODCACHE" "$GOPATH" "$GOTMPDIR" "$XDG_CONFIG_HOME" "$HOME" "$build/bin"

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/aiqlserver" ]; then
	echo "e2ebench: run from the root of an aiql checkout (no cmd/aiqlserver here)" >&2
	exit 2
fi
go build -o "$build/bin/aiqlserver" "$root/cmd/aiqlserver"
(cd "$here" && go build -o "$build/bin/e2ebench" .)

exec "$build/bin/e2ebench" -server "$build/bin/aiqlserver" -root "$root" -work "$build/work" "$@"
