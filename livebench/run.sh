#!/usr/bin/env bash
# Builds the live benchmark from the checkout it sits in and runs it with the
# given arguments (see livebench/README.md). Everything the build writes —
# the Go build cache, temporary files and the binary — stays under
# .bench_build/ in the checkout root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/livebench/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build == /* ]] || build="$root/$build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOTELEMETRY=off
go -C "$root/livebench" build -o "$build/livebench" .
exec "$build/livebench" -out "$build" "$@"
