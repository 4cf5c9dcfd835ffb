#!/usr/bin/env bash
# Builds the serve benchmark from source into .bench_build/ and runs it
# with the given arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload minhash-read --seed 1 --seconds 10 --trace 0
#
# Go's build cache, temporary files and configuration are kept under
# .bench_build/ too, so a run writes nothing outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/servebench" .) >&2
exec "$out/servebench" "$@"
