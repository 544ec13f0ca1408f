#!/usr/bin/env bash
# Builds the benchmark harness and the bpartd daemon from the checkout it
# sits in, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload suite-cold --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build product, Go cache and
# scratch file lives under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/bpartd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/bpartd and perfbench/ must be present)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"
# The go command writes its caches and telemetry counters under HOME and
# the XDG directories; point all of them into the checkout.
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

go build -o "$build/bin/bpartd" ./cmd/bpartd
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -root "$root" -bpartd "$build/bin/bpartd" "$@"
